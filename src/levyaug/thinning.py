"""Exact samplers for the thinning kernel of each family.

Given an observed slice ``x`` at time ``t`` and a fraction ``alpha``, each
sampler draws ``x_tilde`` from the conditional law of the earlier slice
``A_{alpha t}`` given ``A_t = x``:

* Poisson:  componentwise Binomial(x_j, alpha); needs neither theta nor t.
* Gaussian: N(alpha x, alpha (1 - alpha) t Sigma); needs t.
* Gamma:    x_tilde_j = m_j x_j with m_j ~ Beta(alpha t / 2, (1-alpha) t / 2).
* Wishart:  x^{1/2} M x^{1/2} with matrix-beta noise M built from two
  independent identity-scale Wisharts with alpha t and (1 - alpha) t
  degrees of freedom.  Both degrees of freedom must be >= d.

``alpha = 1`` always short-circuits to identity thinning.  Every draw is
checked against the domination invariants (thinned features stay inside
the support bracket defined by the original).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterError, ShapeError
from .families import (
    ExampleBatch,
    Examples,
    FamilyKind,
    LevyFamily,
    PseudoBatch,
    as_example_batch,
    check_alpha,
    check_example,
    gamma_family,
    gaussian_family,
    poisson_family,
    wishart_family,
)
from .rng import RngState, _bartlett, cholesky, matrix_sqrt_sym_pd

__all__ = [
    "ThinningConfig",
    "thin_poisson",
    "thin_gaussian",
    "thin_gamma",
    "thin_wishart",
    "generate_pseudo_examples",
]

# Beta draws with a tiny shape parameter can underflow to exactly 0.0 (or
# round to 1.0); clamp into the open interval so strict domination holds.
_OPEN_LO = np.finfo(float).tiny
_OPEN_HI = 1.0 - np.finfo(float).epsneg


@dataclass(frozen=True)
class ThinningConfig:
    """How to turn originals into pseudo-examples: thinning fraction
    ``alpha`` in (0, 1] (1 = identity), ``n_pseudo`` copies per original,
    and the random state the per-origin substreams derive from."""

    alpha: float
    n_pseudo: int
    seed: RngState

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.n_pseudo < 1:
            raise ParameterError(f"n_pseudo must be >= 1, got {self.n_pseudo}")


# Every entry point checks its originals once, as an ExampleBatch with
# check_example (the family's support, t positive and finite, and the
# Wishart density condition t >= d), and alpha with check_alpha.  Then
# alpha = 1 copies the features, and alpha < 1 draws through _sampler:
# _sampler does the per-call work (Cholesky factors, Wishart triangle
# indices) and returns for_origin(x, t), which does the per-origin work
# (mean and scale, Beta shapes, matrix square root, degrees of freedom)
# and returns draw(rng, size=None).  The draw functions below call the
# generator directly and trust their arguments; every draw of a family
# with a domination bound (all but Gaussian) is asserted against it.

def _binomial(x, alpha, rng, size=None):
    out = rng.binomial(x, alpha, size=None if size is None else (size,) + x.shape)
    assert np.all(out >= 0) and np.all(out <= x)
    return out


def _gaussian(mean, scale, chol, rng, size=None):
    z = rng.standard_normal(mean.shape if size is None else (size,) + mean.shape)
    return mean + scale * (z @ chol.T)


def _beta_scaled(x, a, b, rng, size=None):
    m = rng.beta(a, b, size=x.shape if size is None else (size,) + x.shape)
    m = np.clip(m, _OPEN_LO, _OPEN_HI)
    out = m * x
    assert np.all(out > 0.0) and np.all(out < x)
    return out


def _matrix_beta(x, root_x, dofs, bartlett, rng, size=None):
    """``bartlett``: chol(I) and the strict lower-triangle indices."""
    n = 1 if size is None else size
    w1 = _bartlett(*bartlett, dofs[0], rng, size=n)
    w2 = _bartlett(*bartlett, dofs[1], rng, size=n)
    w, v = np.linalg.eigh(w1 + w2)
    inv_root_s = np.einsum("nij,nj,nkj->nik", v, 1.0 / np.sqrt(w), v)
    m = inv_root_s @ w1 @ inv_root_s
    out = root_x @ m @ root_x
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    assert np.all(np.linalg.eigvalsh(out)[:, 0] > 0.0)
    assert np.all(np.linalg.eigvalsh(x - out)[:, 0] > 0.0)
    return out[0] if size is None else out


def _wishart_dofs(alpha: float, t: float, d: int) -> tuple[float, float]:
    """Degrees of freedom alpha t and (1 - alpha) t of the two increments,
    tolerating the float error of products like (1 - alpha) * t landing a
    hair under the boundary d."""
    dofs = (alpha * t, (1.0 - alpha) * t)
    if min(dofs) < d - 1e-9 * max(1.0, t):
        raise ParameterError(
            "both alpha*t and (1-alpha)*t must be >= d so the two increments "
            f"have valid degrees of freedom (t={t}, alpha={alpha}, d={d})"
        )
    return max(dofs[0], float(d)), max(dofs[1], float(d))


def _sampler(family: LevyFamily, alpha: float):
    """``for_origin(x, t) -> draw(rng, size=None)`` for the kernel of
    ``family`` at a checked ``alpha < 1``, given checked origins."""
    kind, d = family.kind, family.d
    if kind is FamilyKind.POISSON:
        return lambda x, t: partial(_binomial, x, alpha)
    if kind is FamilyKind.GAUSSIAN:
        chol = cholesky(family.sigma)
        return lambda x, t: partial(
            _gaussian, alpha * x, np.sqrt(alpha * (1.0 - alpha) * t), chol
        )
    if kind is FamilyKind.GAMMA:
        return lambda x, t: partial(_beta_scaled, x, 0.5 * alpha * t, 0.5 * (1.0 - alpha) * t)
    bartlett = cholesky(np.eye(d)), np.tril_indices(d, k=-1)
    return lambda x, t: partial(
        _matrix_beta, x, matrix_sqrt_sym_pd(x), _wishart_dofs(alpha, t, d), bartlett
    )


def _thin_one(family_of_d, x, alpha, t, rng, size):
    """Check one origin as a one-row batch of the family ``family_of_d(d)``,
    then draw ``size`` thinned copies of it (one when ``size`` is None)."""
    if np.ndim(x) == 0:
        shape = "(d, d)" if family_of_d is wishart_family else "(d,)"
        raise ShapeError(f"x must be one example's features, of shape {shape}, not a scalar")
    batch = ExampleBatch(x=np.asarray(x)[None], y=1, t=t)
    family = family_of_d(batch.x.shape[1])
    x, t = check_example(family, batch)[0], batch.t.item()
    check_alpha(alpha)
    if alpha == 1.0:
        return x.copy() if size is None else np.repeat(x[None], size, axis=0)
    return _sampler(family, alpha)(x, t)(rng, size)


def thin_poisson(x, alpha: float, rng: np.random.Generator, size=None):
    """Binomially downsample a count vector; keeps each unit with prob alpha."""
    return _thin_one(poisson_family, x, alpha, 1.0, rng, size)


def thin_gaussian(x, alpha: float, t: float, sigma, rng: np.random.Generator, size=None):
    """Rewind a Gaussian slice: alpha x plus N(0, alpha (1-alpha) t Sigma) noise."""
    return _thin_one(lambda d: gaussian_family(d, sigma), x, alpha, t, rng, size)


def thin_gamma(x, alpha: float, t: float, rng: np.random.Generator, size=None):
    """Multiplicative beta noise: x_tilde_j = m_j x_j, m_j ~ Beta(at/2, (1-a)t/2)."""
    return _thin_one(gamma_family, x, alpha, t, rng, size)


def thin_wishart(x, alpha: float, t: float, rng: np.random.Generator, size=None):
    """Matrix-beta thinning of a scatter matrix.

    Draws W1 ~ Wishart(I, alpha t) and W2 ~ Wishart(I, (1-alpha) t)
    independently, forms M = (W1+W2)^{-1/2} W1 (W1+W2)^{-1/2} and returns
    x^{1/2} M x^{1/2}.  Because the conditional law of the earlier slice
    given the sum does not depend on the scale matrix, the identity-scale
    construction is exact for every underlying covariance.  Both alpha t
    and (1 - alpha) t must be >= d unless alpha = 1.
    """
    return _thin_one(wishart_family, x, alpha, t, rng, size)


def generate_pseudo_examples(
    examples: Examples, cfg: ThinningConfig, family: LevyFamily
) -> PseudoBatch:
    """Draw ``cfg.n_pseudo`` thinned copies of every example.

    Row ``i * n_pseudo + b`` of the batch is copy ``b`` of origin ``i``,
    drawn from the substream keyed by ``(i, b)``, so the output is
    deterministic in ``cfg.seed`` and the draws attached to one origin do
    not depend on the rest of the batch.
    """
    alpha, copies = cfg.alpha, cfg.n_pseudo
    batch = as_example_batch(examples)
    xs = check_example(family, batch)
    if alpha == 1.0:
        x_tilde = np.repeat(xs, copies, axis=0)
    else:
        for_origin = _sampler(family, alpha)
        x_tilde = np.empty((len(xs) * copies,) + xs.shape[1:], dtype=xs.dtype)
        for i, (x, t) in enumerate(zip(xs, batch.t.tolist())):
            draw = for_origin(x, t)
            for b in range(copies):
                x_tilde[i * copies + b] = draw(cfg.seed.spawn(i, b))
    return PseudoBatch(
        x_tilde=x_tilde,
        y=np.repeat(batch.y, copies),
        origin_id=np.repeat(np.arange(len(xs)), copies),
        alpha=alpha,
        t_tilde=np.repeat(alpha * batch.t, copies),
    )
