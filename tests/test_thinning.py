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
    generate_pseudo_examples,
    poisson_family,
    thin_gamma,
    thin_gaussian,
    thin_poisson,
    thin_wishart,
    wishart_family,
)

from conftest import mean_close_3sigma, moments_match_3sigma

N_DRAWS = 100_000


# ---------------------------------------------------------------------------
# per-family samplers
# ---------------------------------------------------------------------------

def test_thin_poisson_zero_vector():
    out = thin_poisson(np.zeros(3, dtype=int), 0.7, RngState(0).spawn())
    assert np.array_equal(out, np.zeros(3, dtype=int))


def test_thin_poisson_alpha_one_identity():
    x = np.array([8, 7, 16])
    assert np.array_equal(thin_poisson(x, 1.0, RngState(0).spawn()), x)


def test_thin_poisson_mean():
    x = np.array([8, 7, 16])
    draws = thin_poisson(x, 0.5, RngState(1).spawn(), size=N_DRAWS)
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
    out = thin_poisson(x, alpha, RngState(seed).spawn())
    assert np.all(out >= 0) and np.all(out <= x)


def test_thin_gaussian_alpha_one_exact():
    x = np.array([1.0, -2.0])
    out = thin_gaussian(x, 1.0, 3.0, np.eye(2), RngState(0).spawn())
    assert np.array_equal(out, x)


def test_thin_gaussian_covariance():
    for sigma in (np.eye(2), np.array([[2.0, 0.6], [0.6, 1.0]])):
        draws = thin_gaussian(
            np.zeros(2), 0.5, 1.0, sigma, RngState(2).spawn(), size=N_DRAWS
        )
        emp = np.cov(draws.T)
        target = 0.25 * sigma
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def test_thin_gaussian_rejects_nonfinite_features_and_times():
    g = RngState(0).spawn()
    for x in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(SupportError):
            thin_gaussian(np.array(x), 0.5, 1.0, np.eye(2), g)
    for t in (np.inf, np.nan, 0.0):
        with pytest.raises(ParameterError):
            thin_gaussian(np.zeros(2), 0.5, t, np.eye(2), g)


def test_thin_gaussian_rejects_a_matrix_origin():
    g = RngState(0).spawn()
    with pytest.raises(SupportError):
        thin_gaussian(np.eye(2), 0.5, 1.0, np.eye(2), g)
    # a scalar origin, for every sampler, names the feature shape it expects
    scalar_calls = {
        r"\(d,\)": [
            lambda: thin_poisson(5, 0.5, g),
            lambda: thin_gaussian(5.0, 0.5, 1.0, np.eye(1), g),
            lambda: thin_gamma(5.0, 0.5, 2.0, g),
        ],
        r"\(d, d\)": [lambda: thin_wishart(5.0, 0.5, 4.0, g)],
    }
    for shape, calls in scalar_calls.items():
        for call in calls:
            with pytest.raises(ShapeError, match=shape):
                call()


def test_thin_gaussian_rejects_a_covariance_of_the_wrong_size():
    with pytest.raises(ParameterError):
        thin_gaussian(np.zeros(2), 0.5, 1.0, np.eye(3), RngState(0).spawn())


def test_thin_gaussian_mean():
    x = np.array([2.0, 0.0])
    draws = thin_gaussian(x, 0.5, 4.0, np.eye(2), RngState(3).spawn(), size=N_DRAWS)
    assert mean_close_3sigma(draws, 0.5 * x)


def test_thin_gamma_ratio_moments():
    x = np.array([1.0, 1.0])
    draws = thin_gamma(x, 0.5, 2.0, RngState(4).spawn(), size=N_DRAWS)
    assert mean_close_3sigma(draws, np.array([0.5, 0.5]))

    x = np.array([3.0])
    draws = thin_gamma(x, 0.25, 4.0, RngState(5).spawn(), size=N_DRAWS)
    m = draws[:, 0] / 3.0
    # Beta(aT/2, (1-a)T/2) variance with T=4, a=1/4: (0.5*1.5)/(4*3)
    assert m.var() == pytest.approx(0.0625, rel=0.05)
    assert np.all(draws > 0.0) and np.all(draws < x)


def test_thin_gamma_alpha_one_identity_and_support():
    x = np.array([2.0, 0.5])
    assert np.array_equal(thin_gamma(x, 1.0, 2.0, RngState(0).spawn()), x)
    for bad in ([1.0, 0.0], [1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(SupportError):
            thin_gamma(np.array(bad), 0.5, 2.0, RngState(0).spawn())
    for t in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            thin_gamma(x, 0.5, t, RngState(0).spawn())


def test_thin_wishart_reduces_to_gamma_in_1d():
    t, alpha = 6.0, 0.5
    g1 = RngState(6).spawn()
    g2 = RngState(7).spawn()
    n = 4000
    x = np.array([[2.0]])
    ratios_w = thin_wishart(x, alpha, t, g1, size=n)[:, 0, 0] / 2.0
    ratios_g = (
        thin_gamma(np.array([2.0]), alpha, t, g2, size=n)[:, 0] / 2.0
    )
    assert stats.ks_2samp(ratios_w, ratios_g).pvalue > 0.01


def test_thin_wishart_dof_boundary():
    # alpha t = t - d: the remaining increment sits exactly at dof = d
    out = thin_wishart(np.eye(2), 0.8, 10.0, RngState(8).spawn())
    assert out.shape == (2, 2)
    with pytest.raises(ParameterError):
        thin_wishart(np.eye(2), 0.9, 10.0, RngState(8).spawn())
    with pytest.raises(ParameterError):
        thin_wishart(np.eye(2), 0.5, 3.0, RngState(8).spawn())
    for bad in ([[1.0, 2.0], [2.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(SupportError):
            thin_wishart(np.array(bad), 0.5, 10.0, RngState(8).spawn())
    for t in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            thin_wishart(np.eye(2), 0.5, t, RngState(8).spawn())
    # the Wishart density condition t >= d, even where alpha = 1 draws nothing
    with pytest.raises(SupportError):
        thin_wishart(np.eye(3), 1.0, 2.0, RngState(8).spawn())


def test_thin_wishart_mean():
    x = np.eye(2)
    draws = thin_wishart(x, 0.5, 10.0, RngState(9).spawn(), size=10_000)
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
    thinned = np.stack(
        [thin_gaussian(x, alpha, t, np.eye(2), g) for x in x_full[:20_000]]
    )
    direct = alpha * t * mu + np.sqrt(alpha * t) * g.standard_normal((20_000, 2))
    assert moments_match_3sigma(thinned, direct)


def test_marginal_consistency_gamma():
    g = RngState(12).spawn()
    t, alpha, scale = 5.0, 0.5, 1.3
    x_full = g.gamma(t / 2.0, 2.0 * scale, size=(N_DRAWS, 1))
    thinned = thin_gamma(np.ones(1), alpha, t, g, size=N_DRAWS) * x_full
    direct = g.gamma(alpha * t / 2.0, 2.0 * scale, size=(N_DRAWS, 1))
    assert moments_match_3sigma(thinned, direct)


# ---------------------------------------------------------------------------
# two-stage consistency: thin(alpha) then thin(beta) == thin(alpha beta)
# ---------------------------------------------------------------------------

def test_two_stage_poisson():
    g = RngState(13).spawn()
    x = np.array([14, 9, 3])
    a, b = 0.6, 0.5
    stage1 = thin_poisson(x, a, g, size=N_DRAWS)
    stage2 = g.binomial(stage1, b)
    direct = thin_poisson(x, a * b, g, size=N_DRAWS)
    assert moments_match_3sigma(stage2, direct)


def test_two_stage_gaussian():
    g = RngState(14).spawn()
    x = np.array([2.0, -1.0])
    t, a, b = 4.0, 0.5, 0.6
    stage1 = thin_gaussian(x, a, t, np.eye(2), g, size=N_DRAWS)
    noise = np.sqrt(b * (1 - b) * a * t) * g.standard_normal((N_DRAWS, 2))
    stage2 = b * stage1 + noise
    direct = thin_gaussian(x, a * b, t, np.eye(2), g, size=N_DRAWS)
    assert moments_match_3sigma(stage2, direct)


def test_two_stage_gamma():
    g = RngState(15).spawn()
    x = np.array([2.5])
    t, a, b = 6.0, 0.5, 0.5
    stage1 = thin_gamma(x, a, t, g, size=N_DRAWS)
    m2 = g.beta(b * a * t / 2.0, (1 - b) * a * t / 2.0, size=(N_DRAWS, 1))
    stage2 = m2 * stage1
    direct = thin_gamma(x, a * b, t, g, size=N_DRAWS)
    assert moments_match_3sigma(stage2, direct)


def test_two_stage_wishart():
    g = RngState(16).spawn()
    x = 2.0 * np.eye(2)
    t, a, b = 24.0, 0.75, 2.0 / 3.0
    n = 30_000
    stage1 = thin_wishart(x, a, t, g, size=n)
    stage2 = np.stack([thin_wishart(s, b, a * t, g) for s in stage1[:8000]])
    direct = thin_wishart(x, a * b, t, g, size=8000)
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
    # still be the draw thin_wishart makes from that copy's substream alone.
    g = np.random.default_rng(26)
    d, copies, alpha = 5, 4, 0.5
    t = np.array([12.0, 17.5, 30.0])
    z = g.standard_normal((len(t), 20, d))
    xs = np.einsum("mti,mtj->mij", z, z)
    cfg = ThinningConfig(alpha=alpha, n_pseudo=copies, seed=RngState(27))
    pseudo = generate_pseudo_examples(ExampleBatch(x=xs, y=[1, 2, 1], t=t), cfg, wishart_family(d))
    for i in range(len(t)):
        for b in range(copies):
            single = thin_wishart(xs[i], alpha, t[i], cfg.seed.spawn(i, b))
            assert np.array_equal(pseudo.x_tilde[i * copies + b], single)


def test_compact_origins_draw_what_int64_origins_draw():
    # Origins are checked into the smallest integer type that holds their
    # counts; the binomial draws must be those of the same counts as int64.
    alpha = 0.3
    for top in (7, 300, 70_000, 2**32):
        x = np.array([top, 0, 5, top // 2], dtype=np.int64)
        for size, shape in ((None, (1, 4)), (4, (4, 4))):
            got = thin_poisson(x, alpha, RngState(31).spawn(), size=size)
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
        thin_gamma(np.array([5e-324]), 0.5, 3.0, RngState(5).spawn())


def test_config_validation():
    with pytest.raises(ParameterError):
        ThinningConfig(alpha=0.0, n_pseudo=1, seed=RngState(0))
    with pytest.raises(ParameterError):
        ThinningConfig(alpha=0.5, n_pseudo=0, seed=RngState(0))
