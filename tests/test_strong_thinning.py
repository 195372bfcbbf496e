import numpy as np
import pytest

from levyaug import (
    DegenerateDataError,
    Example,
    ExampleBatch,
    ParameterError,
    SupportError,
    RngState,
    fit_strong_thinning,
    gamma_family,
    gaussian_family,
    naive_bayes_poisson_fit,
    poisson_family,
    predict,
    wishart_family,
)
from levyaug.logistic import _batch_loss_grad, center_columns
from levyaug.strong_thinning import _limit_objective

from conftest import alpha_path_distances, example_sums, finite_diff_gradient


# ---------------------------------------------------------------------------
# limit loss values
# ---------------------------------------------------------------------------

# The limit fit's own objective, ``_limit_objective``, on one example's
# class sums (``example_sums``) is that example's limit loss at centered
# beta; centering its gradient gives the gradient of beta -> loss(center(beta)).

def test_limit_loss_gaussian_zero_beta():
    val, _ = _limit_objective(np.zeros((2, 3)), gaussian_family(2),
                              example_sums([1.0, 2.0], 2, 3), 1.5)
    assert val == 0.0


def test_limit_loss_gaussian_hand_computed():
    beta = np.array([[1.0, -1.0], [0.0, 0.0]])
    val, _ = _limit_objective(beta, gaussian_family(2), example_sums([1.0, 0.0], 1, 2), 2.0)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_limit_loss_poisson_is_per_word_loss(rng):
    d, k = 4, 3
    fam = poisson_family(d)
    e = np.eye(d)
    word_loss = lambda b, j, y: _batch_loss_grad(b, e[[j]], np.array([y]), 0.0, e[[j]].T)[0]
    for _ in range(10):
        beta = center_columns(rng.standard_normal((d, k)))
        x = rng.integers(0, 6, size=d)
        y = int(rng.integers(1, k + 1))
        got, _ = _limit_objective(beta, fam, example_sums(x, y, k), 7.0)
        expect = sum(x[j] * word_loss(beta, j, y) for j in range(d))
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_limit_loss_gradient_matches_fd(rng):
    for _ in range(40):
        d, k = 3, 3
        beta = rng.standard_normal((d, k))
        gauss = gaussian_family(d, np.eye(d) * rng.uniform(0.5, 2.0))
        x = rng.standard_normal(d)
        y = int(rng.integers(1, k + 1))
        t = rng.uniform(0.5, 3.0)
        limit = lambda b: _limit_objective(center_columns(b), gauss, example_sums(x, y, k), t)
        grad = center_columns(limit(beta)[1])
        fd = finite_diff_gradient(lambda b: limit(b)[0], beta)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5

        xc = rng.integers(0, 5, size=d)
        pois = poisson_family(d)
        limit = lambda b: _limit_objective(center_columns(b), pois, example_sums(xc, y, k), t)
        grad = center_columns(limit(beta)[1])
        fd = finite_diff_gradient(lambda b: limit(b)[0], beta)
        assert np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


def test_limit_loss_convex_midpoint(rng):
    d, k = 3, 2
    fam = poisson_family(d)
    for _ in range(50):
        b1 = rng.standard_normal((d, k))
        b2 = rng.standard_normal((d, k))
        x = rng.integers(0, 5, size=d)
        y = int(rng.integers(1, k + 1))
        loss = lambda b: _limit_objective(center_columns(b), fam, example_sums(x, y, k), 2.0)[0]
        mid = loss(0.5 * (b1 + b2))
        assert mid <= 0.5 * (loss(b1) + loss(b2)) + 1e-9


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
            sums = example_sums(ex.x, ex.y, k)
            total += center_columns(_limit_objective(center_columns(beta), fam, sums, ex.t)[1])
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
            sums = example_sums(ex.x, ex.y, k)
            one, raw = _limit_objective(center_columns(beta), fam, sums, ex.t)
            value += one
            grad += center_columns(raw)
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
    scatter = [Example(x=3.0 * np.eye(2), y=1, t=3.0),
               Example(x=2.0 * np.eye(2), y=2, t=3.0)]
    with pytest.raises(ParameterError):
        fit_strong_thinning(scatter, wishart_family(2))


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


@pytest.mark.parametrize("lam", [-1e-3, float("nan"), float("inf")])
def test_fit_strong_thinning_rejects_a_bad_ridge(lam):
    examples = [Example(x=np.array([1, 2]), y=1, t=1.0), Example(x=np.array([0, 3]), y=2, t=1.0)]
    for family in (poisson_family(2), gaussian_family(2)):
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            fit_strong_thinning(examples, family, ridge_lambda=lam)


# ---------------------------------------------------------------------------
# alpha path
# ---------------------------------------------------------------------------

def test_alpha_path_stable_under_doubling_b(rng):
    fam = gaussian_family(2)
    examples = _gaussian_examples(rng, n=40, d=2, k=2, t=1.0)
    base = [
        alpha_path_distances(examples, fam, [0.3], 100, 1e-8, RngState(s))[0]
        for s in range(5)
    ]
    doubled = [
        alpha_path_distances(examples, fam, [0.3], 200, 1e-8, RngState(s))[0]
        for s in (5, 6)
    ]
    # doubling B only shrinks the Monte Carlo part of d(alpha): the means
    # must agree within the single-draw scatter
    spread = 2.0 * np.std(base, ddof=1)
    assert abs(np.mean(doubled) - np.mean(base)) <= spread + 0.01


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


def test_naive_bayes_checks_the_counts():
    # a negative or fractional count has no Poisson rate: it used to give a
    # rate of -1 and a NaN score
    for x in ([[-1.0, 2.5], [0.0, 3.0]], [[1.5, 2.0], [0.0, 3.0]]):
        with pytest.raises(SupportError):
            naive_bayes_poisson_fit(ExampleBatch(x=x, y=[1, 2], t=1.0))


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
