import itertools
import math

import numpy as np
import pytest
from scipy import stats

from levyaug import (
    ParameterError,
    RngState,
    gamma_family,
    gaussian_family,
    poisson_family,
    thinning_log_density,
    wishart_family,
)

from conftest import mean_close_3sigma, random_pd_matrix
from oracles import (
    Topic,
    TopicMixture,
    exact_posterior,
    log_partition,
    poisson_thinning_kernel_enumerate,
    wishart_split_oracle,
)


def _topic(logits, normalize=True):
    theta = np.asarray(logits, dtype=float)
    if normalize:
        theta = theta - math.log(np.exp(theta).sum())
    return Topic(theta, poisson_family(theta.shape[0]))


# ---------------------------------------------------------------------------
# topics and log_partition
# ---------------------------------------------------------------------------

def test_topic_domain_enforced_at_construction():
    with pytest.raises(ParameterError):
        Topic(np.array([-0.5, 0.1]), gamma_family(2))
    Topic(np.array([-0.5, -0.1]), gamma_family(2))
    with pytest.raises(ParameterError):
        Topic(np.eye(2), wishart_family(2))  # positive-definite, wrong sign
    Topic(-np.eye(2), wishart_family(2))


def test_log_partition_poisson_zeros_is_d():
    for d in (1, 3, 7):
        assert log_partition(Topic(np.zeros(d), poisson_family(d))) == pytest.approx(d)


def test_log_partition_gaussian_zero_theta():
    assert log_partition(Topic(np.zeros(2), gaussian_family(2))) == 0.0


def test_log_partition_gamma_unit_variance():
    # sigma^2 = 1 corresponds to theta = -1/2 and psi = 0
    assert log_partition(Topic(np.array([-0.5]), gamma_family(1))) == pytest.approx(0.0)


@pytest.mark.parametrize("kind", ["poisson", "gaussian", "gamma", "wishart"])
def test_log_partition_convex_on_random_pairs(kind, rng):
    for _ in range(100):
        if kind == "poisson":
            fam = poisson_family(3)
            t1, t2 = rng.normal(size=3), rng.normal(size=3)
        elif kind == "gaussian":
            fam = gaussian_family(3, random_pd_matrix(3, rng))
            t1, t2 = rng.normal(size=3), rng.normal(size=3)
        elif kind == "gamma":
            fam = gamma_family(3)
            t1, t2 = -rng.uniform(0.1, 5.0, size=3), -rng.uniform(0.1, 5.0, size=3)
        else:
            fam = wishart_family(2)
            t1, t2 = -random_pd_matrix(2, rng), -random_pd_matrix(2, rng)
        mid = log_partition(Topic((t1 + t2) / 2.0, fam))
        avg = 0.5 * (log_partition(Topic(t1, fam)) + log_partition(Topic(t2, fam)))
        assert mid <= avg + 1e-9


# ---------------------------------------------------------------------------
# mixture validation
# ---------------------------------------------------------------------------

def test_mixture_validation():
    t = _topic([0.0, 0.0])
    with pytest.raises(ParameterError):
        TopicMixture(np.array([0.6, 0.6]), ((((1.0, t)),), (((1.0, t)),)), poisson_family(2))
    with pytest.raises(ParameterError):
        TopicMixture(
            np.array([0.5, 0.5]),
            (((0.5, t),), ((1.0, t),)),
            poisson_family(2),
        )
    with pytest.raises(ParameterError):
        TopicMixture(
            np.array([0.5, 0.5]),
            (((1.0, t),), ((1.0, _topic([0.0, 0.0], normalize=False)),)),
            poisson_family(2),
            equal_information=True,
        )
    with pytest.raises(ParameterError):
        TopicMixture(
            np.array([1.0]),
            (((1.0, Topic(np.zeros(2), gaussian_family(2))),),),
            poisson_family(2),
        )
    gaussian_mix = TopicMixture(
        np.array([1.0]),
        (((1.0, Topic(np.zeros(2), gaussian_family(2))),),),
        gaussian_family(2),
    )
    with pytest.raises(ParameterError):
        exact_posterior(gaussian_mix, np.array([1, 0]), 1.0)


# ---------------------------------------------------------------------------
# exact posteriors
# ---------------------------------------------------------------------------

def test_posterior_symmetric_mixture_is_half_half():
    t1 = _topic([1.0, -1.0])
    t2 = _topic([-1.0, 1.0])
    mix = TopicMixture(
        np.array([0.5, 0.5]), (((1.0, t1),), ((1.0, t2),)), poisson_family(2),
        equal_information=True,
    )
    post = exact_posterior(mix, np.array([2, 2]), 1.0)
    assert np.allclose(post, [0.5, 0.5], atol=1e-12)


def test_posterior_one_word_likelihood_ratio():
    t1 = Topic(np.log([0.8, 0.2]), poisson_family(2))
    t2 = Topic(np.log([0.2, 0.8]), poisson_family(2))
    mix = TopicMixture(
        np.array([0.5, 0.5]), (((1.0, t1),), ((1.0, t2),)), poisson_family(2),
        equal_information=True,
    )
    for t in (0.5, 1.0, 2.0, 7.0):
        post = exact_posterior(mix, np.array([1, 0]), t)
        assert np.allclose(post, [0.8, 0.2], atol=1e-12)


def _random_equal_info_mixture(rng, k=2, d=3, topics_per_class=2):
    classes = []
    for _ in range(k):
        weights = rng.dirichlet(np.ones(topics_per_class))
        classes.append(
            tuple(
                (float(w), _topic(rng.normal(size=d)))
                for w in weights
            )
        )
    priors = rng.dirichlet(np.ones(k))
    priors = priors / priors.sum()
    return TopicMixture(priors, tuple(classes), poisson_family(d), equal_information=True)


def test_posterior_invariant_in_t_for_equal_information(rng):
    for _ in range(10):
        mix = _random_equal_info_mixture(rng)
        for x in itertools.product(range(3), repeat=3):
            base = exact_posterior(mix, np.array(x), 1.0)
            for t in (0.5, 2.0):
                assert np.abs(exact_posterior(mix, np.array(x), t) - base).max() <= 1e-12


def _thinned_count_pmf(x_tilde, rate, alpha, tol=1e-18):
    """P[thinned count = x_tilde] for one coordinate by explicit summation
    over the original count, independent of the closed-form identity."""
    total = 0.0
    n = x_tilde
    while True:
        term = stats.poisson.pmf(n, rate) * stats.binom.pmf(x_tilde, n, alpha)
        total += term
        n += 1
        if n > x_tilde + 20 and term < tol:
            break
    return total


def test_remark_conditional_invariance_for_unequal_information(rng):
    # topics with different total rate mass (equal-information violated):
    # the posterior given the thinned count at its own time alpha * t must
    # match the enumerated thinned posterior
    t1 = _topic([0.3, -0.5], normalize=False)
    t2 = _topic([-0.7, 0.8], normalize=False)
    mix = TopicMixture(
        np.array([0.4, 0.6]), (((1.0, t1),), ((1.0, t2),)), poisson_family(2)
    )
    t, alpha = 2.0, 0.5
    for x in itertools.product(range(3), repeat=2):
        x = np.array(x)
        joint = []
        for prior, topic in zip(mix.class_priors, (t1, t2)):
            rates = t * np.exp(topic.theta)
            lik = np.prod(
                [_thinned_count_pmf(x[j], rates[j], alpha) for j in range(2)]
            )
            joint.append(prior * lik)
        enumerated = np.array(joint) / np.sum(joint)
        direct = exact_posterior(mix, x, alpha * t)
        assert np.abs(enumerated - direct).max() < 1e-10


# ---------------------------------------------------------------------------
# kernel enumeration
# ---------------------------------------------------------------------------

def test_kernel_table_single_count():
    table = poisson_thinning_kernel_enumerate(np.array([1]), 0.5)
    assert table == {(0,): pytest.approx(0.5), (1,): pytest.approx(0.5)}


def test_kernel_table_two_coordinates():
    table = poisson_thinning_kernel_enumerate(np.array([2, 1]), 0.5)
    assert len(table) == 6
    assert table[(2, 1)] == pytest.approx(0.125)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_kernel_table_matches_log_density():
    fam = poisson_family(3)
    x = np.array([2, 1, 3])
    for alpha in (0.25, 0.5, 0.75):
        table = poisson_thinning_kernel_enumerate(x, alpha)
        for xt, prob in table.items():
            if prob == 0.0:
                continue
            logp = thinning_log_density(fam, x, np.array(xt), 1.0, alpha)
            assert math.exp(logp) == pytest.approx(prob, abs=1e-12)


def test_kernel_table_bound():
    with pytest.raises(ParameterError):
        poisson_thinning_kernel_enumerate(np.array([10, 3]), 0.5)


# ---------------------------------------------------------------------------
# Wishart split oracle
# ---------------------------------------------------------------------------

def test_split_oracle_scalar_ratio_is_uniform():
    g = RngState(51).spawn()
    ratios = []
    for _ in range(3000):
        x, x_thin = wishart_split_oracle(np.array([[1.0]]), 4, 0.5, g)
        ratios.append(x_thin[0, 0] / x[0, 0])
    # Beta(alpha t / 2, (1 - alpha) t / 2) = Beta(1, 1)
    assert stats.kstest(ratios, stats.uniform.cdf).pvalue > 0.01


def test_split_oracle_identity_at_alpha_one():
    g = RngState(52).spawn()
    x, x_thin = wishart_split_oracle(np.eye(2), 5, 1.0, g)
    assert np.array_equal(x, x_thin)


def test_split_oracle_mean():
    g = RngState(53).spawn()
    sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    t = 6
    draws = np.stack(
        [wishart_split_oracle(sigma, t, 0.5, g)[0].ravel() for _ in range(10_000)]
    )
    assert mean_close_3sigma(draws, (t * sigma).ravel())


def test_split_oracle_rejects_fractional_times():
    g = RngState(54).spawn()
    with pytest.raises(ParameterError):
        wishart_split_oracle(np.eye(2), 5, 0.5, g)  # alpha t = 2.5
    with pytest.raises(ParameterError):
        wishart_split_oracle(np.eye(2), 1, 1.0, g)  # t < d
