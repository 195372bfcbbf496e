import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from levyaug import (
    DecompositionError,
    Example,
    ExampleBatch,
    ParameterError,
    RngState,
    ShapeError,
    SupportError,
    ThinningConfig,
    gamma_family,
    gaussian_family,
    generate_pseudo_examples,
    poisson_family,
    thin,
    wishart_family,
)

from conftest import mean_close_3sigma, moments_match_3sigma

N_DRAWS = 100_000


# ---------------------------------------------------------------------------
# per-family samplers
# ---------------------------------------------------------------------------

def test_thin_poisson_zero_vector():
    g = RngState(0).spawn()
    out = thin(poisson_family(3), np.zeros(3, dtype=int), alpha=0.7, t=1.0, rng=g)
    assert np.array_equal(out, np.zeros(3, dtype=int))


def test_thin_poisson_alpha_one_identity():
    x = np.array([8, 7, 16])
    assert np.array_equal(thin(poisson_family(3), x, alpha=1.0, t=1.0, rng=RngState(0).spawn()), x)


def test_thin_poisson_mean():
    x = np.array([8, 7, 16])
    draws = thin(poisson_family(3), x, alpha=0.5, t=1.0, rng=RngState(1).spawn(), size=N_DRAWS)
    assert np.all(draws >= 0) and np.all(draws <= x)
    assert mean_close_3sigma(draws, 0.5 * x)


@settings(max_examples=50, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=4),
    alpha=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_thin_poisson_domination_property(counts, alpha, seed):
    x = np.array(counts)
    out = thin(poisson_family(len(x)), x, alpha=alpha, t=1.0, rng=RngState(seed).spawn())
    assert np.all(out >= 0) and np.all(out <= x)


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_thin_rejects_a_size_that_is_not_a_nonnegative_integer(alpha):
    fam, x, g = poisson_family(2), np.array([3, 4]), RngState(2).spawn()
    state = g.bit_generator.state
    for size in (-1, 2.5):
        with pytest.raises(ParameterError, match="size must be a nonnegative integer"):
            thin(fam, x, alpha=alpha, t=1.0, rng=g, size=size)
    assert g.bit_generator.state == state  # rejected before any draw
    for size in (0, np.int64(2)):
        assert thin(fam, x, alpha=alpha, t=1.0, rng=g, size=size).shape == (size, 2)


def test_thin_gaussian_alpha_one_exact():
    x = np.array([1.0, -2.0])
    out = thin(gaussian_family(2), x, alpha=1.0, t=3.0, rng=RngState(0).spawn())
    assert np.array_equal(out, x)


def test_thin_gaussian_covariance():
    for sigma in (np.eye(2), np.array([[2.0, 0.6], [0.6, 1.0]])):
        draws = thin(
            gaussian_family(2, sigma), np.zeros(2), alpha=0.5, t=1.0, rng=RngState(2).spawn(),
            size=N_DRAWS,
        )
        emp = np.cov(draws.T)
        target = 0.25 * sigma
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def test_thin_gaussian_rejects_nonfinite_features_and_times():
    g, family = RngState(0).spawn(), gaussian_family(2)
    for x in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(SupportError):
            thin(family, np.array(x), alpha=0.5, t=1.0, rng=g)
    for t in (np.inf, np.nan, 0.0):
        with pytest.raises(ParameterError):
            thin(family, np.zeros(2), alpha=0.5, t=t, rng=g)


def test_thin_gaussian_rejects_a_matrix_origin():
    g = RngState(0).spawn()
    with pytest.raises(SupportError):
        thin(gaussian_family(2), np.eye(2), alpha=0.5, t=1.0, rng=g)
    # an origin whose width is not the family's d
    with pytest.raises(SupportError):
        thin(gaussian_family(3), np.zeros(2), alpha=0.5, t=1.0, rng=g)
    # a scalar origin has no feature axis, for every family
    for family in (poisson_family(1), gaussian_family(1), gamma_family(1), wishart_family(1)):
        with pytest.raises(ShapeError):
            thin(family, 5.0, alpha=0.5, t=4.0, rng=g)


def test_thin_gaussian_rejects_a_covariance_of_the_wrong_size():
    with pytest.raises(ParameterError):
        thin(gaussian_family(2, np.eye(3)), np.zeros(2), alpha=0.5, t=1.0, rng=RngState(0).spawn())


def test_thin_gaussian_mean():
    x = np.array([2.0, 0.0])
    draws = thin(gaussian_family(2), x, alpha=0.5, t=4.0, rng=RngState(3).spawn(), size=N_DRAWS)
    assert mean_close_3sigma(draws, 0.5 * x)


def test_thin_gamma_ratio_moments():
    x = np.array([1.0, 1.0])
    draws = thin(gamma_family(2), x, alpha=0.5, t=2.0, rng=RngState(4).spawn(), size=N_DRAWS)
    assert mean_close_3sigma(draws, np.array([0.5, 0.5]))

    x = np.array([3.0])
    draws = thin(gamma_family(1), x, alpha=0.25, t=4.0, rng=RngState(5).spawn(), size=N_DRAWS)
    m = draws[:, 0] / 3.0
    # Beta(aT/2, (1-a)T/2) variance with T=4, a=1/4: (0.5*1.5)/(4*3)
    assert m.var() == pytest.approx(0.0625, rel=0.05)
    assert np.all(draws > 0.0) and np.all(draws < x)


def test_thin_gamma_alpha_one_identity_and_support():
    x, family = np.array([2.0, 0.5]), gamma_family(2)
    assert np.array_equal(thin(family, x, alpha=1.0, t=2.0, rng=RngState(0).spawn()), x)
    for bad in ([1.0, 0.0], [1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(SupportError):
            thin(family, np.array(bad), alpha=0.5, t=2.0, rng=RngState(0).spawn())
    for t in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            thin(family, x, alpha=0.5, t=t, rng=RngState(0).spawn())


def test_thin_wishart_reduces_to_gamma_in_1d():
    t, alpha = 6.0, 0.5
    g1 = RngState(6).spawn()
    g2 = RngState(7).spawn()
    n = 4000
    x = np.array([[2.0]])
    ratios_w = thin(wishart_family(1), x, alpha=alpha, t=t, rng=g1, size=n)[:, 0, 0] / 2.0
    ratios_g = (
        thin(gamma_family(1), np.array([2.0]), alpha=alpha, t=t, rng=g2, size=n)[:, 0] / 2.0
    )
    assert stats.ks_2samp(ratios_w, ratios_g).pvalue > 0.01


def test_thin_wishart_dof_boundary():
    family = wishart_family(2)
    # alpha t = t - d: the remaining increment sits exactly at dof = d
    out = thin(family, np.eye(2), alpha=0.8, t=10.0, rng=RngState(8).spawn())
    assert out.shape == (2, 2)
    with pytest.raises(ParameterError):
        thin(family, np.eye(2), alpha=0.9, t=10.0, rng=RngState(8).spawn())
    with pytest.raises(ParameterError):
        thin(family, np.eye(2), alpha=0.5, t=3.0, rng=RngState(8).spawn())
    for bad in ([[1.0, 2.0], [2.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(SupportError):
            thin(family, np.array(bad), alpha=0.5, t=10.0, rng=RngState(8).spawn())
    for t in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            thin(family, np.eye(2), alpha=0.5, t=t, rng=RngState(8).spawn())
    # the Wishart density condition t >= d, even where alpha = 1 draws nothing
    with pytest.raises(SupportError):
        thin(wishart_family(3), np.eye(3), alpha=1.0, t=2.0, rng=RngState(8).spawn())


def test_thin_wishart_mean():
    x = np.eye(2)
    draws = thin(wishart_family(2), x, alpha=0.5, t=10.0, rng=RngState(9).spawn(), size=10_000)
    mean = draws.mean(axis=0)
    assert np.linalg.norm(mean - 0.5 * x) / np.linalg.norm(0.5 * x) < 0.05
    # domination holds for every draw
    assert np.linalg.eigvalsh(draws).min() > 0.0
    assert np.linalg.eigvalsh(x - draws).min() > 0.0


# ---------------------------------------------------------------------------
# marginal correctness: generate at t then thin == generate at alpha t
# ---------------------------------------------------------------------------

def test_marginal_consistency_poisson():
    g = RngState(10).spawn()
    t, alpha, mu = 8.0, 0.4, np.array([0.25, 0.3, 0.45])
    x_full = g.poisson(t * mu, size=(N_DRAWS, 3))
    thinned = g.binomial(x_full, alpha)
    direct = g.poisson(alpha * t * mu, size=(N_DRAWS, 3))
    assert moments_match_3sigma(thinned, direct)


def test_marginal_consistency_gaussian():
    g = RngState(11).spawn()
    t, alpha = 3.0, 0.6
    mu = np.array([1.0, -0.5])
    x_full = t * mu + np.sqrt(t) * g.standard_normal((N_DRAWS, 2))
    family = gaussian_family(2)
    thinned = np.stack([thin(family, x, alpha=alpha, t=t, rng=g) for x in x_full[:20_000]])
    direct = alpha * t * mu + np.sqrt(alpha * t) * g.standard_normal((20_000, 2))
    assert moments_match_3sigma(thinned, direct)


def test_marginal_consistency_gamma():
    g = RngState(12).spawn()
    t, alpha, scale = 5.0, 0.5, 1.3
    x_full = g.gamma(t / 2.0, 2.0 * scale, size=(N_DRAWS, 1))
    thinned = thin(gamma_family(1), np.ones(1), alpha=alpha, t=t, rng=g, size=N_DRAWS) * x_full
    direct = g.gamma(alpha * t / 2.0, 2.0 * scale, size=(N_DRAWS, 1))
    assert moments_match_3sigma(thinned, direct)


# ---------------------------------------------------------------------------
# two-stage consistency: thin(alpha) then thin(beta) == thin(alpha beta)
# ---------------------------------------------------------------------------

def test_two_stage_poisson():
    g = RngState(13).spawn()
    x = np.array([14, 9, 3])
    a, b = 0.6, 0.5
    stage1 = thin(poisson_family(3), x, alpha=a, t=1.0, rng=g, size=N_DRAWS)
    stage2 = g.binomial(stage1, b)
    direct = thin(poisson_family(3), x, alpha=a * b, t=1.0, rng=g, size=N_DRAWS)
    assert moments_match_3sigma(stage2, direct)


def test_two_stage_gaussian():
    g = RngState(14).spawn()
    x = np.array([2.0, -1.0])
    t, a, b = 4.0, 0.5, 0.6
    stage1 = thin(gaussian_family(2), x, alpha=a, t=t, rng=g, size=N_DRAWS)
    noise = np.sqrt(b * (1 - b) * a * t) * g.standard_normal((N_DRAWS, 2))
    stage2 = b * stage1 + noise
    direct = thin(gaussian_family(2), x, alpha=a * b, t=t, rng=g, size=N_DRAWS)
    assert moments_match_3sigma(stage2, direct)


def test_two_stage_gamma():
    g = RngState(15).spawn()
    x = np.array([2.5])
    t, a, b = 6.0, 0.5, 0.5
    stage1 = thin(gamma_family(1), x, alpha=a, t=t, rng=g, size=N_DRAWS)
    m2 = g.beta(b * a * t / 2.0, (1 - b) * a * t / 2.0, size=(N_DRAWS, 1))
    stage2 = m2 * stage1
    direct = thin(gamma_family(1), x, alpha=a * b, t=t, rng=g, size=N_DRAWS)
    assert moments_match_3sigma(stage2, direct)


def test_two_stage_wishart():
    g = RngState(16).spawn()
    x = 2.0 * np.eye(2)
    t, a, b = 24.0, 0.75, 2.0 / 3.0
    n = 30_000
    family = wishart_family(2)
    stage1 = thin(family, x, alpha=a, t=t, rng=g, size=n)
    stage2 = np.stack([thin(family, s, alpha=b, t=a * t, rng=g) for s in stage1[:8000]])
    direct = thin(family, x, alpha=a * b, t=t, rng=g, size=8000)
    flat2 = stage2.reshape(len(stage2), -1)
    flatd = direct.reshape(len(direct), -1)
    assert moments_match_3sigma(flat2, flatd)


# ---------------------------------------------------------------------------
# generate_pseudo_examples
# ---------------------------------------------------------------------------

def _poisson_examples(n=3):
    g = RngState(99).spawn()
    return [
        Example(x=g.poisson(4.0, size=2), y=1 + (i % 2), t=4.0) for i in range(n)
    ]


def test_pseudo_counting_and_tagging():
    cfg = ThinningConfig(alpha=0.5, n_pseudo=4, seed=RngState(21))
    pseudo = generate_pseudo_examples(_poisson_examples(3), cfg, poisson_family(2))
    assert len(pseudo) == 12
    assert [pe.origin_id for pe in pseudo] == [0] * 4 + [1] * 4 + [2] * 4
    assert all(pe.alpha == 0.5 for pe in pseudo)
    assert all(pe.t_tilde == 2.0 for pe in pseudo)


def test_pseudo_determinism():
    examples = _poisson_examples(4)
    cfg = ThinningConfig(alpha=0.3, n_pseudo=3, seed=RngState(22))
    a = generate_pseudo_examples(examples, cfg, poisson_family(2))
    b = generate_pseudo_examples(examples, cfg, poisson_family(2))
    assert all(np.array_equal(x.x_tilde, y.x_tilde) for x, y in zip(a, b))


def test_pseudo_streams_do_not_depend_on_other_rows():
    examples = _poisson_examples(3)
    cfg = ThinningConfig(alpha=0.3, n_pseudo=3, seed=RngState(23))
    full = generate_pseudo_examples(examples, cfg, poisson_family(2))
    # replace the middle example: draws for origins 0 and 2 must not move
    changed = [examples[0], Example(x=np.array([9, 9]), y=1, t=4.0), examples[2]]
    redo = generate_pseudo_examples(changed, cfg, poisson_family(2))
    for i in list(range(3)) + list(range(6, 9)):
        assert np.array_equal(full[i].x_tilde, redo[i].x_tilde)


def test_pseudo_alpha_one_identity():
    examples = _poisson_examples(2)
    cfg = ThinningConfig(alpha=1.0, n_pseudo=1, seed=RngState(24))
    pseudo = generate_pseudo_examples(examples, cfg, poisson_family(2))
    for ex, pe in zip(examples, pseudo):
        assert np.array_equal(pe.x_tilde, ex.x)


def test_pseudo_wishart_dof_precondition():
    fam = wishart_family(2)
    examples = [Example(x=np.eye(2), y=1, t=3.0)]
    # alpha t = 1.5 < d: rejected rather than extrapolated
    cfg = ThinningConfig(alpha=0.5, n_pseudo=1, seed=RngState(25))
    with pytest.raises(ParameterError):
        generate_pseudo_examples(examples, cfg, fam)
    ok = ThinningConfig(alpha=1.0, n_pseudo=1, seed=RngState(25))
    generate_pseudo_examples(examples, ok, fam)


def test_pseudo_wishart_rows_equal_single_draws_from_their_substreams():
    # The copies are finished as one stacked computation; each row must
    # still be the draw thin makes from that copy's substream alone.
    g = np.random.default_rng(26)
    d, copies, alpha = 5, 4, 0.5
    t = np.array([12.0, 17.5, 30.0])
    z = g.standard_normal((len(t), 20, d))
    xs = np.einsum("mti,mtj->mij", z, z)
    cfg = ThinningConfig(alpha=alpha, n_pseudo=copies, seed=RngState(27))
    pseudo = generate_pseudo_examples(ExampleBatch(x=xs, y=[1, 2, 1], t=t), cfg, wishart_family(d))
    for i in range(len(t)):
        for b in range(copies):
            single = thin(wishart_family(d), xs[i], alpha=alpha, t=t[i], rng=cfg.seed.spawn(i, b))
            assert np.array_equal(pseudo.x_tilde[i * copies + b], single)


def test_compact_origins_draw_what_int64_origins_draw():
    # Origins are checked into the smallest integer type that holds their
    # counts; the binomial draws must be those of the same counts as int64.
    alpha = 0.3
    for top in (7, 300, 70_000, 2**32):
        x = np.array([top, 0, 5, top // 2], dtype=np.int64)
        for size, shape in ((None, (1, 4)), (4, (4, 4))):
            g = RngState(31).spawn()
            got = thin(poisson_family(4), x, alpha=alpha, t=1.0, rng=g, size=size)
            want = RngState(31).spawn().binomial(x, alpha, size=shape)
            assert np.array_equal(got, want[0] if size is None else want)
    xs = np.random.default_rng(32).poisson(3.0, size=(5, 6))
    xs[1, 2] = 300
    cfg = ThinningConfig(alpha=alpha, n_pseudo=3, seed=RngState(33))
    batch = ExampleBatch(x=xs, y=[1, 2, 1, 2, 1], t=2.0)
    pseudo = generate_pseudo_examples(batch, cfg, poisson_family(6))
    assert pseudo.x_tilde.dtype == np.uint16
    for i in range(len(xs)):
        for b in range(3):
            want = cfg.seed.spawn(i, b).binomial(xs[i], alpha, size=(1, 6))[0]
            assert np.array_equal(pseudo.x_tilde[i * 3 + b], want)


def test_pseudo_counts_take_under_two_bytes_per_entry():
    # Counts below 256 thin into uint8 copies; int64 copies would take 8
    # bytes per entry of x_tilde.
    import tracemalloc

    xs = np.minimum(np.random.default_rng(34).poisson(2.0, size=(100, 500)), 255)
    batch = ExampleBatch(x=xs, y=np.arange(100) % 2 + 1, t=1000.0)
    cfg = ThinningConfig(alpha=0.1, n_pseudo=32, seed=RngState(35))
    tracemalloc.start()
    try:
        pseudo = generate_pseudo_examples(batch, cfg, poisson_family(500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pseudo.x_tilde.dtype == np.uint8
    assert peak < 2 * pseudo.x_tilde.size


def test_a_copy_outside_its_bracket_raises_naming_the_origin():
    # A near-singular scatter matrix passes the support check, but some of
    # its matrix-beta copies round outside 0 < x_tilde < x.
    near_singular = np.array([[1.0, 0.99999999999999], [0.99999999999999, 1.0]])
    examples = [Example(x=np.eye(2), y=1, t=6.0), Example(x=near_singular, y=2, t=6.0)]
    cfg = ThinningConfig(alpha=0.5, n_pseudo=32, seed=RngState(1))
    with pytest.raises(DecompositionError, match="origin 1 "):
        generate_pseudo_examples(examples, cfg, wishart_family(2))
    # A subnormal Gamma feature: every beta multiple rounds to 0 or to x.
    with pytest.raises(DecompositionError, match="origin 0 "):
        thin(gamma_family(1), np.array([5e-324]), alpha=0.5, t=3.0, rng=RngState(5).spawn())


def test_config_validation():
    with pytest.raises(ParameterError):
        ThinningConfig(alpha=0.0, n_pseudo=1, seed=RngState(0))
    with pytest.raises(ParameterError):
        ThinningConfig(alpha=0.5, n_pseudo=0, seed=RngState(0))
