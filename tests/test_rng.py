import numpy as np
import pytest
from scipy import stats

from levyaug import DecompositionError, RngState
from levyaug.rng import _bartlett, _wishart_from_bartlett, cholesky, matrix_sqrt_sym_pd

from conftest import random_pd_matrix


def test_same_state_same_draws():
    a = RngState(7, 3).spawn().standard_normal(8)
    b = RngState(7, 3).spawn().standard_normal(8)
    assert np.array_equal(a, b)
    c = RngState(7, 4).spawn().standard_normal(8)
    assert not np.array_equal(a, c)


def test_spawn_is_keyed_not_sequential():
    s = RngState(11)
    a1 = s.spawn(0, 0).standard_normal(4)
    b1 = s.spawn(1, 0).standard_normal(4)
    # spawning in the opposite order reproduces the same streams
    b2 = s.spawn(1, 0).standard_normal(4)
    a2 = s.spawn(0, 0).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def test_substate_derives_new_state():
    s = RngState(11)
    assert s.substate(5) == s.substate(5)
    assert s.substate(5) != s.substate(6)


@pytest.mark.parametrize("seed, key", [
    (0, (0,)),
    (2**32 - 1, (2**32 - 1, 2**32)),
    (2**32, (2**64 - 1, 0)),
    (2**64 - 1, ()),
    (-3, (-1, 2**40 + 5)),
])
def test_spawn_words_seed_the_streams_an_int_tuple_seeds(seed, key):
    # The entropy, as uint32 words, fills the pool that numpy builds from
    # the int tuple (seed, stream, *key), each taken modulo 2^64.
    state = RngState(seed, 9)
    ints = tuple(v % 2**64 for v in (seed, 9, *key))
    assert np.array_equal(
        state.spawn(*key).random(6),
        np.random.default_rng(np.random.SeedSequence(entropy=ints)).random(6),
    )
    mixed = np.random.SeedSequence(entropy=ints).generate_state(2, np.uint64)
    assert state.substate(*key) == RngState(int(mixed[0]), int(mixed[1]))


def _wishart(scale, dof, g, size=None):
    """Wishart(scale, dof) draws L W L', L = chol(scale), with W ~ Wishart(I, dof)
    from the Bartlett primitives thinning uses."""
    d, chol = scale.shape[0], cholesky(scale)
    w = chol @ _wishart_from_bartlett(d, _bartlett(d, dof, g, 1 if size is None else size)) @ chol.T
    return w[0] if size is None else w


@pytest.mark.parametrize("d, n", [(1, 3), (2, 0), (5, 1), (5, 4)])
def test_bartlett_variates_are_the_draws_of_one_array_call(d, n):
    # The chi-squares of every copy, drawn as one call with an array of
    # degrees of freedom, then the normals: the same stream, value by value.
    dof = 7.5
    g = RngState(8).spawn()
    chi2 = g.chisquare(dof - np.arange(d), size=(n, d))
    want = np.concatenate([chi2, g.standard_normal((n, d * (d - 1) // 2))], axis=1)
    assert np.array_equal(_bartlett(d, dof, RngState(8).spawn(), n), want)


def test_wishart_mean_and_fractional_dof(rng):
    scale = random_pd_matrix(2, rng)
    g = RngState(6).spawn()
    dof = 5.5
    draws = _wishart(scale, dof, g, size=40_000)
    mean = draws.mean(axis=0)
    assert np.linalg.norm(mean - dof * scale) / np.linalg.norm(dof * scale) < 0.02
    single = _wishart(scale, 2.0, g)
    assert single.shape == (2, 2)


def test_wishart_matches_scipy_distribution():
    g = RngState(7).spawn()
    draws = _wishart(np.eye(1), 4.0, g, size=20_000)[:, 0, 0]
    assert stats.kstest(draws, stats.chi2(df=4).cdf).pvalue > 0.01


def test_matrix_sqrt_of_a_stack_is_the_root_of_each_matrix(rng):
    stack = np.stack([random_pd_matrix(3, rng) for _ in range(4)])
    roots = matrix_sqrt_sym_pd(stack)
    for m, root in zip(stack, roots):
        assert np.array_equal(root, matrix_sqrt_sym_pd(m))


def test_matrix_sqrt_and_cholesky_errors(rng):
    m = random_pd_matrix(4, rng)
    root = matrix_sqrt_sym_pd(m)
    assert np.allclose(root @ root, m, atol=1e-10)
    assert np.allclose(root, root.T, atol=1e-12)
    with pytest.raises(DecompositionError):
        matrix_sqrt_sym_pd(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(DecompositionError):
        cholesky(np.array([[0.0, 1.0], [1.0, 0.0]]))
