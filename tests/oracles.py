"""Brute-force references the fast paths are tested against.

Everything here trades efficiency for transparency: exact finite-mixture
posteriors summed topic by topic in log space, thinning kernels tabulated
by full enumeration of dominated count vectors, and a Wishart sampler that
literally builds the two slices from shared Gaussian increments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from levyaug.errors import ParameterError
from levyaug.families import FamilyKind, LevyFamily, _frozen_array, _is_symmetric
from levyaug.rng import cholesky

__all__ = [
    "Topic",
    "log_partition",
    "TopicMixture",
    "exact_posterior",
    "poisson_thinning_kernel_enumerate",
    "wishart_split_oracle",
]

_ENUM_BOUND = 12


@dataclass(frozen=True, eq=False)
class Topic:
    """Natural parameter of one mixture component.

    ``theta`` is a length-``d`` vector for the vector families and a
    ``d x d`` symmetric negative-definite matrix for the Wishart family.
    Domains are enforced here, at construction, so a misconfigured
    simulation fails immediately rather than mid-run:

    * Gamma requires every ``theta_j < 0`` (theta_j = -1 / (2 sigma_j^2)),
    * Wishart requires ``theta`` negative-definite,
    * Poisson and Gaussian accept any finite vector.
    """

    theta: np.ndarray
    family: LevyFamily

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        kind = self.family.kind
        d = self.family.d
        if kind is FamilyKind.WISHART:
            if theta.shape != (d, d):
                raise ParameterError(f"Wishart natural parameter must be {d}x{d}")
            if not _is_symmetric(theta):
                raise ParameterError("Wishart natural parameter must be symmetric")
            if np.linalg.eigvalsh(theta).max() >= 0.0:
                raise ParameterError("Wishart natural parameter must be negative-definite")
        else:
            if theta.shape != (d,):
                raise ParameterError(f"natural parameter must have length {d}")
            if not np.all(np.isfinite(theta)):
                raise ParameterError("natural parameter must be finite")
            if kind is FamilyKind.GAMMA and np.any(theta >= 0.0):
                raise ParameterError("Gamma natural parameters must be negative")
        object.__setattr__(self, "theta", _frozen_array(theta, dtype=float))


def log_partition(topic: Topic) -> float:
    """psi(theta), the per-unit-time log-partition of the family.

    Poisson: ``sum_j exp(theta_j)``.  Gaussian: ``theta' Sigma theta / 2``.
    Gamma: ``-sum_j log(-2 theta_j) / 2``.  Wishart: ``-logdet(-2 theta)/2``.
    Topic construction has already enforced the natural domain.
    """
    theta = topic.theta
    kind = topic.family.kind
    if kind is FamilyKind.POISSON:
        return float(np.exp(theta).sum())
    if kind is FamilyKind.GAUSSIAN:
        return float(0.5 * theta @ topic.family.sigma @ theta)
    if kind is FamilyKind.GAMMA:
        return float(-0.5 * np.log(-2.0 * theta).sum())
    sign, logdet = np.linalg.slogdet(-2.0 * theta)
    if sign <= 0:
        raise ParameterError("Wishart natural parameter left its domain")
    return float(-0.5 * logdet)


@dataclass(frozen=True, eq=False)
class TopicMixture:
    """Finite generative model: class priors and, per class, a finite
    list of (weight, topic) components.

    With ``equal_information=True`` construction verifies that every
    topic shares one log-partition value (to 1e-12) - the condition under
    which posteriors do not depend on the observation time.
    """

    class_priors: np.ndarray
    topics: tuple[tuple[tuple[float, Topic], ...], ...]
    family: LevyFamily
    equal_information: bool = False

    def __post_init__(self):
        priors = np.asarray(self.class_priors, dtype=float)
        if priors.ndim != 1 or priors.shape[0] != len(self.topics):
            raise ParameterError("need one prior weight per class")
        if np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-12:
            raise ParameterError("class priors must be a probability vector (to 1e-12)")
        topics = tuple(
            tuple((float(w), topic) for w, topic in klass) for klass in self.topics
        )
        for klass in topics:
            if len(klass) == 0:
                raise ParameterError("every class needs at least one topic")
            weight_sum = sum(w for w, _ in klass)
            if abs(weight_sum - 1.0) > 1e-12:
                raise ParameterError("per-class topic weights must sum to 1 (to 1e-12)")
            for _, topic in klass:
                if topic.family != self.family:
                    raise ParameterError("all topics must share the mixture's family")
        if self.equal_information:
            values = [log_partition(t) for klass in topics for _, t in klass]
            if max(values) - min(values) > 1e-12:
                raise ParameterError(
                    "equal_information requires one common log-partition value"
                )
        priors.setflags(write=False)
        object.__setattr__(self, "class_priors", priors)
        object.__setattr__(self, "topics", topics)

    @property
    def n_classes(self) -> int:
        return len(self.topics)


def _poisson_logpmf(x: np.ndarray, rates: np.ndarray) -> float:
    # sum_j [x_j log r_j - r_j - log x_j!], with 0 log 0 = 0
    terms = np.where(x > 0, x * np.log(np.where(rates > 0, rates, 1.0)), 0.0)
    if np.any((rates == 0) & (x > 0)):
        return -np.inf
    return float(terms.sum() - rates.sum() - sum(math.lgamma(v + 1.0) for v in x))


def exact_posterior(mix: TopicMixture, x, t: float) -> np.ndarray:
    """P(Y = y | A_t = x) by direct log-space summation over topics.

    Poisson only (the count support makes everything exactly computable).
    The result is normalized to machine precision.
    """
    if mix.family.kind is not FamilyKind.POISSON:
        raise ParameterError("exact posteriors are implemented for the Poisson family")
    if t <= 0.0:
        raise ParameterError("t must be positive")
    x = np.asarray(x, dtype=float)
    log_joint = np.empty(mix.n_classes)
    for y, klass in enumerate(mix.topics):
        if mix.class_priors[y] == 0.0:
            log_joint[y] = -np.inf
            continue
        parts = [
            math.log(w) + _poisson_logpmf(x, t * np.exp(topic.theta))
            for w, topic in klass
            if w > 0.0
        ]
        log_joint[y] = math.log(mix.class_priors[y]) + logsumexp(parts)
    post = np.exp(log_joint - logsumexp(log_joint))
    return post / post.sum()


def poisson_thinning_kernel_enumerate(x, alpha: float) -> dict[tuple[int, ...], float]:
    """The exact thinning kernel of a count vector as a full table.

    Enumerates every dominated count vector and assigns it its product of
    binomial pmfs, computed from integer binomial coefficients.  Bounded
    to ``sum(x) <= 12`` to keep the table small.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    counts = np.asarray(x)
    if np.any(counts < 0) or np.any(counts != np.floor(counts)):
        raise ParameterError("count vector must hold nonnegative integers")
    counts = counts.astype(int)
    if counts.sum() > _ENUM_BOUND:
        raise ParameterError(
            f"enumeration bound exceeded: sum(x) = {counts.sum()} > {_ENUM_BOUND}"
        )
    table: dict[tuple[int, ...], float] = {}
    for tup in itertools.product(*(range(c + 1) for c in counts)):
        prob = 1.0
        for n, k in zip(counts.tolist(), tup):
            prob *= math.comb(n, k) * alpha**k * (1.0 - alpha) ** (n - k)
        table[tup] = prob
    return table


def wishart_split_oracle(
    sigma: np.ndarray,
    t: int,
    alpha: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """A joint draw of the two Wishart slices built from raw increments.

    Draws ``t`` i.i.d. N(0, sigma) vectors and returns the scatter of all
    of them together with the scatter of the first ``alpha * t``; the pair
    is exactly distributed as (slice at t, slice at alpha t) whenever both
    times are integers.  Used as the distributional reference for ``thin``
    with the Wishart family.
    """
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.shape[0]
    if t != int(t) or t < d:
        raise ParameterError(f"t must be an integer >= d, got {t}")
    t = int(t)
    t_thin = alpha * t
    if abs(t_thin - round(t_thin)) > 1e-9 or round(t_thin) < d:
        raise ParameterError(
            f"alpha * t must be an integer >= d, got alpha={alpha}, t={t}"
        )
    t_thin = int(round(t_thin))
    chol = cholesky(sigma)
    z = rng.standard_normal((t, d)) @ chol.T
    x_thin = z[:t_thin].T @ z[:t_thin]
    x = x_thin + z[t_thin:].T @ z[t_thin:]
    return 0.5 * (x + x.T), 0.5 * (x_thin + x_thin.T)
