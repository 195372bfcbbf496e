"""The maximum-thinning limit of the augmented logistic objective.

As the thinning fraction goes to zero (with unboundedly many pseudo-copies
per original), the per-example logistic loss, rescaled by 1/alpha and
recentered by log K, converges to a deterministic limit.  Writing the
underlying process as drift + diffusion + compound-Poisson jumps, the
limit depends on the observation only through three conditional
quantities:

* ``mu(x)``  - conditional mean of drift plus diffusion at time t given x,
* ``lam(x)`` - conditional expected number of jumps on [0, t] given x,
* ``nu(x)``  - distribution of a single jump given x (finite support here),

and equals, for coefficients in the centered gauge (columns of beta sum
to zero),

    L_0(beta; x, y) = -mu(x) . beta_y
                      + (t / 2K) * sum_k beta_k' Sigma beta_k
                      + lam(x) * sum_z nu(z | x) loss(beta; z, y).

The ``LevyFamily`` fixes all three, and ``Sigma`` is its covariance, so
summed over examples the limit depends on the data only through the
per-class feature sums ``S`` (a ``(d, K)`` matrix) and the total
information content ``t_total``.  Two families have a derived limit:

* Gaussian (pure diffusion): mu(x) = x, lam = 0.  The summed limit loss
  ``-sum S o beta + (t_total / 2K) sum_k beta_k' Sigma beta_k`` is an
  exact quadratic whose minimizer is a linear solve.
* Poisson (pure unit-basis jumps): mu = 0, lam(x) = sum_j x_j and nu is
  categorical over basis vectors with weights x_j / sum x.  The summed
  limit loss ``sum_j n_j lse(beta_j) - sum S o beta``, with ``n_j`` the
  total count of word j, is a per-word weighted logistic objective, which
  is why this endpoint reproduces naive-Bayes class probabilities on
  single words.

The per-example loss is the summed loss of a one-example set, whose
class sums hold ``x`` in column ``y`` and zeros elsewhere, so
``_limit_objective`` evaluates both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import single_thread
from .errors import ParameterError
from .families import (
    Examples,
    FamilyKind,
    LevyFamily,
    as_example_batch,
    check_example,
    poisson_family,
)
from .logistic import (
    FeatureMap,
    LogisticModel,
    _check_classes,
    _check_ridge,
    _minimize,
    _softmax,
    center_columns,
    minimize,  # noqa: F401  (perfbench/tracer.py wraps this name)
)

__all__ = [
    "fit_strong_thinning",
    "naive_bayes_poisson_fit",
    "PoissonNaiveBayes",
]


# --------------------------------------------------------------------------
# The limit objective
# --------------------------------------------------------------------------

def _check_derived(family: LevyFamily) -> None:
    if family.kind not in (FamilyKind.GAUSSIAN, FamilyKind.POISSON):
        raise ParameterError(
            f"no derived strong-thinning law for the {family.kind.value} family"
        )


def _limit_objective(beta, family: LevyFamily, sums, t_total: float):
    """Value and raw gradient of the summed limit loss at centered beta,
    for per-class feature sums ``sums`` (d, K) and total information
    content ``t_total``.  ``family`` is Gaussian or Poisson."""
    if family.kind is FamilyKind.GAUSSIAN:
        sigma_beta = family.sigma @ beta
        t_k = t_total / beta.shape[1]
        value = -float((sums * beta).sum()) + 0.5 * t_k * float((beta * sigma_beta).sum())
        return value, t_k * sigma_beta - sums
    totals = sums.sum(axis=1)
    soft, lse = _softmax(beta)
    value = float(totals @ lse) - float((sums * beta).sum())
    return value, totals[:, None] * soft - sums


# --------------------------------------------------------------------------
# Fitting the limit objective
# --------------------------------------------------------------------------

_MAX_ITER = 1000


def _expand(gamma: np.ndarray) -> np.ndarray:
    """Map the free (p, K-1) block onto the centered constraint surface."""
    last = -gamma.sum(axis=1, keepdims=True)
    return np.concatenate([gamma, last], axis=1)


def _contract(grad_beta: np.ndarray) -> np.ndarray:
    return grad_beta[:, :-1] - grad_beta[:, -1:]


def fit_strong_thinning(
    examples: Examples,
    family: LevyFamily,
    ridge_lambda: float = 0.0,
) -> LogisticModel:
    """Minimize the summed limit loss (plus an optional ridge term) over
    centered coefficients.  Only the Gaussian and Poisson families have a
    derived limit, so only they are accepted.  An empty batch or a missing
    class raises :class:`DegenerateDataError`, and features outside the
    family's support (the width included) raise :class:`SupportError`.

    Gaussian is a quadratic whose centered minimizer is the linear solve
    ``((t_total / K) Sigma + lambda I) beta = S - mean_k S_k``, with ``S``
    the per-class feature sums.  Poisson is solved by L-BFGS to the
    logistic fits' gradient max-norm bound, 1e-7, in at most 1000
    iterations, else it raises :class:`OptimizationError`; the objective is
    divided by the total count, so the argmin is unchanged and the bound
    applies at unit scale instead of count scale.
    """
    _check_ridge(ridge_lambda)
    batch = as_example_batch(examples)
    k = _check_classes(batch.y)
    p = family.d
    _check_derived(family)
    x = check_example(family, batch)

    sums = np.zeros((p, k))  # per-class feature sums, or word counts
    np.add.at(sums.T, batch.y - 1, np.asarray(x, dtype=float))  # in row order
    t_total = float(sum(batch.t.tolist()))  # in row order

    with single_thread():  # the solve holds all of the fit's BLAS work
        if family.kind is FamilyKind.GAUSSIAN:
            a = (t_total / k) * family.sigma + ridge_lambda * np.eye(p)
            beta = np.linalg.solve(a, center_columns(sums))
        else:
            scale = max(1.0, float(sums.sum()))

            def fun_grad(gamma):
                beta = _expand(gamma.reshape(p, k - 1))
                value, grad = _limit_objective(beta, family, sums, t_total)
                value += 0.5 * ridge_lambda * float((beta**2).sum())
                grad += ridge_lambda * beta
                return value / scale, _contract(grad).ravel() / scale

            gamma, _ = _minimize(fun_grad, np.zeros(p * (k - 1)), _MAX_ITER, "strong-thinning fit")
            beta = _expand(gamma.reshape(p, k - 1))
    return LogisticModel(beta=center_columns(beta), feature_map=FeatureMap.IDENTITY)


# --------------------------------------------------------------------------
# Naive Bayes on Poisson counts (the generative twin of the Poisson limit)
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PoissonNaiveBayes:
    """Per-class word rates and the induced linear scores log(rate)."""

    rates: np.ndarray  # (K, d)
    scores: np.ndarray  # (K, d), log rates
    class_time: np.ndarray  # (K,), total information content per class


def naive_bayes_poisson_fit(
    examples: Examples,
    smoothing: float = 0.0,
) -> PoissonNaiveBayes:
    """Rate estimates (count_jk + a) / (time_k + a d) with additive
    smoothing a, plus the induced log-rate scores.  Features that are not
    counts raise :class:`SupportError`."""
    if smoothing < 0.0:
        raise ParameterError("smoothing must be nonnegative")
    batch = as_example_batch(examples)
    k = _check_classes(batch.y)
    d = batch.x.shape[1]
    x = check_example(poisson_family(d), batch)
    counts = np.zeros((k, d))
    time = np.zeros(k)
    np.add.at(counts, batch.y - 1, np.asarray(x, dtype=float))  # in row order
    np.add.at(time, batch.y - 1, batch.t)
    rates = (counts + smoothing) / (time + smoothing * d)[:, None]
    with np.errstate(divide="ignore"):
        scores = np.log(rates)
    return PoissonNaiveBayes(rates=rates, scores=scores, class_time=time)
