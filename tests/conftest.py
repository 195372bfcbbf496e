import numpy as np
import pytest

from levyaug import (
    ThinningConfig,
    TrainConfig,
    fit_logistic_detailed,
    fit_strong_thinning,
    generate_pseudo_examples,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def finite_diff_gradient(f, x0, h=1e-6):
    """Central finite differences of a scalar function of an array."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        hi = x0.copy()
        lo = x0.copy()
        hi[idx] += h
        lo[idx] -= h
        grad[idx] = (f(hi) - f(lo)) / (2 * h)
    return grad


def example_sums(x, y, k):
    """The per-class feature sums (d, K) of one example: ``x`` in column
    ``y``, zeros elsewhere.  ``strong_thinning._limit_objective`` of these
    sums is that example's limit loss."""
    sums = np.zeros((len(x), k))
    sums[:, y - 1] = x
    return sums


def alpha_path_distances(examples, family, alphas, n_pseudo, ridge_lambda, seed):
    """For each alpha, the Frobenius distance between the normalized
    coefficients of a thinned fit (``n_pseudo`` copies per original from
    ``seed.substate(j)`` for the j-th alpha, at a fixed ``ridge_lambda``,
    no CV) and those of the alpha -> 0 limit fit.  Shrinking alpha should
    shrink the distance, up to Monte Carlo noise: the paper's second
    property."""
    def unit(beta):
        return beta / float(np.linalg.norm(beta))

    limit = unit(fit_strong_thinning(examples, family, ridge_lambda=ridge_lambda).beta)
    cfg = TrainConfig(ridge_lambda=ridge_lambda)
    out = []
    for j, alpha in enumerate(alphas):
        thin_cfg = ThinningConfig(alpha=alpha, n_pseudo=n_pseudo, seed=seed.substate(j))
        model = fit_logistic_detailed(generate_pseudo_examples(examples, thin_cfg, family), cfg)[0]
        out.append(float(np.linalg.norm(unit(model.beta) - limit)))
    return out


def random_pd_matrix(d, rng, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T + d * np.eye(d))


def mean_close_3sigma(draws, target):
    """Componentwise |sample mean - target| <= 3 * SE check."""
    draws = np.asarray(draws, dtype=float)
    m = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    return np.all(np.abs(m - target) <= 3.0 * se + 1e-12)


def moments_match_3sigma(a, b):
    """Two-sample mean and variance agreement at 3 Monte Carlo sigma.

    The variance comparison uses Var(s^2) ~ (m4 - s^4) / n estimated from
    each sample's fourth central moment.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None]
    ma, mb = a.mean(0), b.mean(0)
    va, vb = a.var(0, ddof=1), b.var(0, ddof=1)
    se_mean = np.sqrt(va / a.shape[0] + vb / b.shape[0])
    ok_mean = np.all(np.abs(ma - mb) <= 3.0 * se_mean + 1e-12)
    m4a = ((a - ma) ** 4).mean(0)
    m4b = ((b - mb) ** 4).mean(0)
    se_var = np.sqrt(
        np.maximum(m4a - va**2, 0.0) / a.shape[0]
        + np.maximum(m4b - vb**2, 0.0) / b.shape[0]
    )
    ok_var = np.all(np.abs(va - vb) <= 3.0 * se_var + 1e-12)
    return bool(ok_mean and ok_var)
