import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyaug import (
    Example,
    ExampleBatch,
    FamilyKind,
    LevyFamily,
    ParameterError,
    PseudoBatch,
    PseudoExample,
    ShapeError,
    SupportError,
    check_example,
    gamma_family,
    gaussian_family,
    poisson_family,
    thinning_log_density,
    wishart_family,
)

from levyaug.families import as_example_batch

from conftest import random_pd_matrix


# ---------------------------------------------------------------------------
# family / type invariants
# ---------------------------------------------------------------------------

def test_gaussian_family_requires_sigma():
    with pytest.raises(ParameterError):
        LevyFamily(FamilyKind.GAUSSIAN, 2)
    with pytest.raises(ParameterError):
        LevyFamily(FamilyKind.POISSON, 2, sigma=np.eye(2))
    with pytest.raises(ParameterError):
        gaussian_family(2, np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD


def test_dimension_must_be_positive():
    with pytest.raises(ParameterError):
        poisson_family(0)


def _check_one(family, x):
    """check_example on a one-row batch; returns the checked row."""
    return check_example(family, ExampleBatch(x=np.asarray(x)[None], y=1, t=4.0))[0]


def test_feature_support_checks():
    assert _check_one(poisson_family(2), [1, 0]).dtype == np.uint8
    with pytest.raises(SupportError):
        _check_one(poisson_family(2), [1, -1])
    with pytest.raises(SupportError):
        _check_one(poisson_family(2), [1.5, 0])
    with pytest.raises(SupportError):
        _check_one(gamma_family(2), [1.0, 0.0])
    with pytest.raises(SupportError):
        _check_one(wishart_family(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    _check_one(wishart_family(2), np.eye(2))
    with pytest.raises(SupportError, match="Wishart feature matrix must be a symmetric matrix"):
        _check_one(wishart_family(2), np.array([[2.0, 0.5], [0.4, 1.0]]))  # PD, not symmetric


def test_poisson_counts_take_the_smallest_integer_type_that_holds_them():
    fam = poisson_family(2)
    cases = [(0, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16),
             (65536, np.uint32), (2**32 - 1, np.uint32), (2**32, np.int64),
             (2**63 - 1, np.int64)]
    for top, dtype in cases:
        for x in (np.array([top, 1], dtype=np.int64), np.array([top, 1], dtype=np.uint64)):
            checked = _check_one(fam, x)
            assert checked.dtype == dtype and checked.tolist() == [top, 1]
        if top < 2**53:  # exactly representable, so a float row checks the same
            assert _check_one(fam, np.array([top, 1.0])).dtype == dtype
    empty = check_example(fam, ExampleBatch(x=np.zeros((0, 2)), y=1, t=1.0))
    assert empty.dtype == np.uint8 and empty.shape == (0, 2)
    for too_large in (np.array([2**63, 1], dtype=np.uint64), [1e19, 3.0], [2.0**63, 0.0]):
        with pytest.raises(SupportError, match="below 2\\*\\*63"):
            _check_one(fam, too_large)
    with pytest.raises(SupportError):
        _check_one(fam, np.array([-1, 3], dtype=np.int8))


def test_wishart_example_needs_t_at_least_d():
    fam = wishart_family(3)
    with pytest.raises(SupportError):
        check_example(fam, ExampleBatch(x=np.stack([np.eye(3)] * 2), y=1, t=[3.0, 2.0]))
    check_example(fam, ExampleBatch(x=np.eye(3)[None], y=1, t=3.0))


def test_check_example_applies_the_feature_rules_to_every_row():
    cases = [
        (poisson_family(2), [[1, 0], [2, 3]], [[1, 0], [2, -1]]),
        (poisson_family(2), [[1, 0], [2, 3]], [[1, 0], [1.5, 3]]),
        (gaussian_family(2), [[0.5, -1.0], [2.0, 0.0]], [[0.5, -1.0], [np.inf, 0.0]]),
        (gamma_family(2), [[0.5, 1.0], [2.0, 0.1]], [[0.5, 1.0], [2.0, 0.0]]),
        (wishart_family(2), [np.eye(2), [[2.0, 1.0], [1.0, 2.0]]],
         [np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]),
    ]
    for fam, good, bad in cases:
        checked = check_example(fam, ExampleBatch(x=np.array(good), y=1, t=4.0))
        assert np.array_equal(checked, np.stack([_check_one(fam, x) for x in good]))
        assert checked.dtype == _check_one(fam, good[0]).dtype
        with pytest.raises(SupportError):
            _check_one(fam, bad[1])
        with pytest.raises(SupportError):
            check_example(fam, ExampleBatch(x=np.array(bad), y=1, t=4.0))
    with pytest.raises(SupportError):
        check_example(poisson_family(3), ExampleBatch(x=np.zeros((2, 2)), y=1, t=1.0))


def test_example_fields_are_frozen():
    rows = [Example(x=np.array([1.0, 2.0]), y=1, t=1.0),
            Example(x=np.array([3.0, 4.0]), y=2, t=0.5)]
    batch = as_example_batch(rows)
    assert as_example_batch(batch) is batch and len(batch) == 2
    assert isinstance(batch[1], Example) and tuple(batch[1])[1:] == (2, 0.5)
    assert all(np.array_equal(a.x, b.x) and a[1:] == b[1:] for a, b in zip(rows, batch))
    with pytest.raises(ValueError):
        batch[0].x[0] = 5.0
    for column in (batch.x, batch.y, batch.t):
        with pytest.raises(ValueError):
            column[0] = 1
    good = dict(x=np.zeros((2, 2)), y=[1, 2], t=1.0)
    for bad in (dict(y=[0, 1]), dict(t=[1.0, 0.0]), dict(t=-1.0), dict(t=[1.0, np.nan]),
                dict(t=np.inf)):
        with pytest.raises(ParameterError):
            ExampleBatch(**{**good, **bad})
    for bad in (dict(y=[1, 2, 1]), dict(x=np.zeros(2))):
        with pytest.raises(ShapeError):
            ExampleBatch(**{**good, **bad})


# ---------------------------------------------------------------------------
# thinning density
# ---------------------------------------------------------------------------

def test_poisson_kernel_single_coordinate_values():
    fam = poisson_family(1)
    assert thinning_log_density(fam, [2], [1], 1.0, 0.5) == pytest.approx(math.log(0.5))
    assert thinning_log_density(fam, [3], [3], 1.0, 0.5) == pytest.approx(math.log(0.125))


def test_gamma_kernel_is_arcsine_at_half():
    fam = gamma_family(1)
    got = thinning_log_density(fam, [1.0], [0.5], 2.0, 0.5)
    assert got == pytest.approx(math.log(1.0 / (math.pi * 0.5)), abs=1e-12)


def test_gaussian_kernel_matches_normal_logpdf(rng):
    from scipy.stats import multivariate_normal

    sigma = random_pd_matrix(2, rng)
    fam = gaussian_family(2, sigma)
    x = rng.normal(size=2)
    xt = rng.normal(size=2)
    t, alpha = 3.0, 0.3
    ref = multivariate_normal(
        mean=alpha * x, cov=alpha * (1 - alpha) * t * sigma
    ).logpdf(xt)
    assert thinning_log_density(fam, x, xt, t, alpha) == pytest.approx(ref, abs=1e-10)


def test_alpha_bounds_rejected():
    fam = poisson_family(1)
    for alpha in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ParameterError):
            thinning_log_density(fam, [2], [1], 1.0, alpha)


def test_kernel_times_must_be_positive_and_finite():
    cases = [
        (poisson_family(1), [2], [1]),
        (gaussian_family(1), [0.5], [0.2]),
        (gamma_family(1), [1.0], [0.5]),
        (wishart_family(1), [[2.0]], [[1.0]]),
    ]
    for fam, x, xt in cases:
        thinning_log_density(fam, x, xt, 4.0, 0.5)
        for t in (np.nan, np.inf, -1.0):
            with pytest.raises(ParameterError):
                thinning_log_density(fam, x, xt, t, 0.5)


def test_kernel_support_violations():
    with pytest.raises(SupportError):
        thinning_log_density(poisson_family(1), [2], [3], 1.0, 0.5)
    with pytest.raises(SupportError):
        thinning_log_density(gamma_family(1), [1.0], [1.0], 2.0, 0.5)
    with pytest.raises(SupportError):
        thinning_log_density(wishart_family(2), np.eye(2), 2.0 * np.eye(2), 5.0, 0.5)


def test_poisson_kernel_theta_free_and_equal_to_binomials():
    # carrier-ratio route vs direct binomial pmfs, small exhaustive slice
    fam = poisson_family(2)
    for x in itertools.product(range(4), repeat=2):
        if sum(x) == 0:
            continue
        for alpha in (0.25, 0.5, 0.75):
            for xt in itertools.product(*(range(v + 1) for v in x)):
                ref = sum(
                    math.log(math.comb(n, k)) + k * math.log(alpha) + (n - k) * math.log(1 - alpha)
                    for n, k in zip(x, xt)
                )
                got = thinning_log_density(fam, list(x), list(xt), 7.3, alpha)
                assert got == pytest.approx(ref, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    alpha=st.floats(min_value=0.05, max_value=0.95),
)
def test_poisson_kernel_normalizes(counts, alpha):
    fam = poisson_family(len(counts))
    total = 0.0
    for xt in itertools.product(*(range(c + 1) for c in counts)):
        total += math.exp(thinning_log_density(fam, counts, list(xt), 2.0, alpha))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_wishart_kernel_ratio_consistency(rng):
    # unnormalized values must still order draws consistently with the
    # defining carrier ratio: shifting to a different x_tilde changes the
    # log-density by the same amount regardless of the dropped constant
    fam = wishart_family(2)
    x = random_pd_matrix(2, rng)
    a = 0.35 * x
    b = 0.55 * x
    t, alpha = 9.0, 0.5
    diff = thinning_log_density(fam, x, a, t, alpha) - thinning_log_density(
        fam, x, b, t, alpha
    )
    def raw(xt):
        s1, l1 = np.linalg.slogdet(xt)
        s2, l2 = np.linalg.slogdet(x - xt)
        assert s1 > 0 and s2 > 0
        return 0.5 * (alpha * t - 3.0) * l1 + 0.5 * ((1 - alpha) * t - 3.0) * l2

    assert diff == pytest.approx(raw(a) - raw(b), abs=1e-10)


def test_pseudo_batch_columns_are_checked_once_and_read_only():
    batch = PseudoBatch(
        x_tilde=np.arange(6.0).reshape(3, 2), y=[1, 2, 1], origin_id=[0, 0, 1],
        alpha=0.5, t_tilde=[1.0, 1.0, 2.0],
    )
    assert len(batch) == 3
    row = batch[2]
    assert isinstance(row, PseudoExample)
    assert np.array_equal(row.x_tilde, [4.0, 5.0]) and tuple(row)[1:] == (1, 1, 0.5, 2.0)
    assert [pe.origin_id for pe in batch] == [0, 0, 1]
    with pytest.raises(ValueError):
        batch.x_tilde[0, 0] = 1.0
    good = dict(x_tilde=np.zeros((2, 2)), y=[1, 2], origin_id=[0, 1], alpha=0.5, t_tilde=1.0)
    for bad in (dict(alpha=0.0), dict(alpha=[0.5, 1.5]), dict(t_tilde=[1.0, 0.0]),
                dict(y=[0, 1]), dict(origin_id=[-1, 0])):
        with pytest.raises(ParameterError):
            PseudoBatch(**{**good, **bad})
    for bad in (dict(y=[1, 2, 1]), dict(x_tilde=np.zeros(2))):
        with pytest.raises(ShapeError):
            PseudoBatch(**{**good, **bad})
