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
the support bracket defined by the original); an origin too close to the
edge of its support for a draw to stay inside, in floating point, raises
:class:`DecompositionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DecompositionError, ParameterError, ShapeError
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
from .rng import RngState, _bartlett, _wishart_from_bartlett, cholesky, matrix_sqrt_sym_pd

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
# alpha = 1 copies the features, and alpha < 1 draws through _sampler,
# which factors the Gaussian covariance once per call.  Its draw(x, t, rng,
# n) makes the generator calls for n copies of the origin x and returns
# their raw draws as an (n, *raw_shape) stack.  Its finish(raw, xs) takes
# the raw draws of every copy, stacked origin by origin with the same
# number of copies each, and returns the thinned copies: for Wishart, the
# raw draws are the Bartlett variates of W1 and W2, and finish does all of
# the matrix-beta linear algebra as one stacked computation.  finish also
# holds the one domination check of each family with a bound (all but
# Gaussian): a copy that leaves its bracket raises DecompositionError.

def _check_dominated(inside: np.ndarray, n_origins: int) -> None:
    """``inside`` holds, copy by copy (origin by origin, and feature by
    feature if it has more axes), whether a thinned copy lies in the bracket
    its origin bounds.  A copy outside it means the origin is too close to
    the edge of the support, a near-singular matrix or a subnormal value,
    to thin in floating point."""
    ok = inside.reshape(n_origins, -1).all(axis=1)
    if not ok.all():
        i = int(np.argmin(ok))
        raise DecompositionError(
            f"a thinned copy of origin {i} leaves the bracket its origin bounds: the "
            "origin is too close to the edge of the support to thin in floating point"
        )


def _bracketed(above, below, raw, xs):
    """The vector copies ``raw``, checked to satisfy ``above(copy, 0)`` and
    ``below(copy, x)`` entrywise for their origin x.  The check runs origin
    by origin, so that its temporaries stay the size of one origin's
    copies, not of the whole batch."""
    by_origin = raw.reshape((len(xs), -1) + xs.shape[1:])
    inside = [np.all(above(copies, 0) & below(copies, x)) for x, copies in zip(xs, by_origin)]
    _check_dominated(np.array(inside), len(xs))
    return raw


def _matrix_beta(raw, xs):
    """The copies x^{1/2} M x^{1/2}, M = (W1 + W2)^{-1/2} W1 (W1 + W2)^{-1/2},
    from the Bartlett variates ``raw`` of W1 and W2 of every copy; each must
    lie strictly between 0 and its origin x in the positive-definite order."""
    d = xs.shape[-1]
    w1, w2 = (_wishart_from_bartlett(d, v) for v in np.split(raw, 2, axis=1))
    w, v = np.linalg.eigh(w1 + w2)
    inv_root_s = np.einsum("nij,nj,nkj->nik", v, 1.0 / np.sqrt(w), v)
    m = inv_root_s @ w1 @ inv_root_s
    copies = len(raw) // len(xs)
    root_x = np.repeat(matrix_sqrt_sym_pd(xs), copies, axis=0)
    out = root_x @ m @ root_x
    out = 0.5 * (out + np.swapaxes(out, -1, -2))
    gap = np.repeat(xs, copies, axis=0) - out
    inside = (np.linalg.eigvalsh(out)[:, 0] > 0.0) & (np.linalg.eigvalsh(gap)[:, 0] > 0.0)
    _check_dominated(inside, len(xs))
    return out


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
    """``(draw, finish, raw_shape)`` for the kernel of ``family`` at a
    checked ``alpha < 1``, given checked origins (see the comment above)."""
    kind, d = family.kind, family.d
    if kind is FamilyKind.POISSON:
        def draw(x, t, rng, n):
            return rng.binomial(x, alpha, size=(n,) + x.shape)

        return draw, partial(_bracketed, np.greater_equal, np.less_equal), (d,)
    if kind is FamilyKind.GAUSSIAN:
        chol = cholesky(family.sigma)

        def draw(x, t, rng, n):
            z = rng.standard_normal((n,) + x.shape)
            return alpha * x + np.sqrt(alpha * (1.0 - alpha) * t) * (z @ chol.T)

        return draw, lambda raw, xs: raw, (d,)
    if kind is FamilyKind.GAMMA:
        def draw(x, t, rng, n):
            m = rng.beta(0.5 * alpha * t, 0.5 * (1.0 - alpha) * t, size=(n,) + x.shape)
            return np.clip(m, _OPEN_LO, _OPEN_HI) * x

        return draw, partial(_bracketed, np.greater, np.less), (d,)

    def draw(x, t, rng, n):
        """The Bartlett variates of W1 ~ Wishart(I, alpha t) for n copies,
        then those of W2 ~ Wishart(I, (1 - alpha) t), side by side."""
        dofs = _wishart_dofs(alpha, t, d)
        return np.concatenate([_bartlett(d, dof, rng, n) for dof in dofs], axis=1)

    return draw, _matrix_beta, (d * (d + 1),)


def _thin_one(family_of_d, x, alpha, t, rng, size):
    """Check one origin as a one-row batch of the family ``family_of_d(d)``,
    then draw ``size`` thinned copies of it (one when ``size`` is None)."""
    if np.ndim(x) == 0:
        shape = "(d, d)" if family_of_d is wishart_family else "(d,)"
        raise ShapeError(f"x must be one example's features, of shape {shape}, not a scalar")
    batch = ExampleBatch(x=np.asarray(x)[None], y=1, t=t)
    family = family_of_d(batch.x.shape[1])
    xs, t = check_example(family, batch), batch.t.item()
    check_alpha(alpha)
    if alpha == 1.0:
        return xs[0].copy() if size is None else np.repeat(xs, size, axis=0)
    draw, finish, _ = _sampler(family, alpha)
    out = finish(draw(xs[0], t, rng, 1 if size is None else size), xs)
    out = out.astype(xs.dtype, copy=False)  # Poisson draws come as int64
    return out[0] if size is None else out


def thin_poisson(x, alpha: float, rng: np.random.Generator, size=None):
    """Binomially downsample a count vector; keeps each unit with prob alpha.

    The draws, like the checked counts ``alpha = 1`` returns, come back in
    the type :func:`check_example` picks for ``x``: a copy never exceeds its
    origin, so that type holds it."""
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
    if alpha == 1.0 or len(xs) == 0:
        x_tilde = np.repeat(xs, copies, axis=0)
    else:
        draw, finish, raw_shape = _sampler(family, alpha)
        raw = np.empty((len(xs) * copies,) + raw_shape, dtype=xs.dtype)
        for i, (x, t) in enumerate(zip(xs, batch.t.tolist())):
            for b in range(copies):
                raw[i * copies + b] = draw(x, t, cfg.seed.spawn(i, b), 1)[0]
        x_tilde = finish(raw, xs)
    return PseudoBatch(
        x_tilde=x_tilde,
        y=np.repeat(batch.y, copies),
        origin_id=np.repeat(np.arange(len(xs)), copies),
        alpha=alpha,
        t_tilde=np.repeat(alpha * batch.t, copies),
    )
