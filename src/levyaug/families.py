"""Exponential-family process models and the carrier-ratio thinning density.

Each supported family describes the time-``t`` marginal of a process with
independent, stationary increments as an exponential family in a natural
parameter ``theta``:

    f_theta(x; t) = exp(theta . x - t * psi(theta)) * h_t(x),

where ``psi`` is the log-partition and ``h_t`` a theta-free carrier.
Because increments are independent, the conditional density of the earlier
slice ``x_tilde = A_{alpha t}`` given the observed slice ``x = A_t`` is a
pure carrier ratio in which ``theta`` cancels:

    g(x_tilde; x) = h_{alpha t}(x_tilde) * h_{(1-alpha) t}(x - x_tilde) / h_t(x).

This module holds the family descriptors, the example and pseudo-example
batches with their support invariants, and the carrier-ratio density
``thinning_log_density``.  The invariants are checked here and only here:
a batch checks its labels and times when it is built, ``check_example``
checks its features against a family, and ``check_alpha`` checks thinning
fractions.  The samplers of :mod:`levyaug.thinning` (``thin`` and
``generate_pseudo_examples``) and ``thinning_log_density`` check their
inputs through these, as a batch, before computing anything.

Concrete carriers (up to additive constants dropped only for Wishart):

* Poisson:   ``log h_t(x) = sum_j [x_j log t - log x_j!]``
* Gaussian:  ``log h_t(x) = -x' S^-1 x / (2t) - (d/2) log(2 pi t) - logdet(S)/2``
  with ``S`` the family covariance
* Gamma:     ``log h_t(x) = sum_j (t/2 - 1) log x_j - d log Gamma(t/2) - (dt/2) log 2``
* Wishart:   ``log h_t(x) = ((t - d - 1)/2) logdet x``  (unnormalized; the
  multivariate-gamma constant is omitted)
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError, SupportError

__all__ = [
    "FamilyKind",
    "LevyFamily",
    "poisson_family",
    "gaussian_family",
    "gamma_family",
    "wishart_family",
    "Example",
    "ExampleBatch",
    "Examples",
    "as_example_batch",
    "PseudoExample",
    "PseudoBatch",
    "check_alpha",
    "check_example",
    "thinning_log_density",
]


class FamilyKind(enum.Enum):
    POISSON = "poisson"
    GAUSSIAN = "gaussian"
    GAMMA = "gamma"
    WISHART = "wishart"


def _frozen_array(values, dtype=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


def _is_symmetric(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether ``m`` is a symmetric matrix, or a stack of them."""
    square = m.ndim >= 2 and m.shape[-2] == m.shape[-1]
    return square and np.allclose(m, np.swapaxes(m, -1, -2), atol=tol)


@dataclass(frozen=True, eq=False)
class LevyFamily:
    """Descriptor of one of the four process families.

    ``sigma`` is the known covariance of the Gaussian family and must be
    present exactly for that family; the Wishart family is parameterized
    by its matrix dimension ``d`` alone.
    """

    kind: FamilyKind
    d: int
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.d}")
        if self.kind is FamilyKind.GAUSSIAN:
            if self.sigma is None:
                raise ParameterError("Gaussian family requires a covariance matrix")
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.shape != (self.d, self.d):
                raise ParameterError(
                    f"covariance must be {self.d}x{self.d}, got {sigma.shape}"
                )
            if not np.isfinite(sigma).all():
                raise ParameterError("covariance must be finite")
            if not _is_symmetric(sigma):
                raise ParameterError("covariance must be symmetric")
            if np.linalg.eigvalsh(sigma).min() <= 0.0:
                raise ParameterError("covariance must be positive-definite")
            object.__setattr__(self, "sigma", _frozen_array(sigma, dtype=float))
        elif self.sigma is not None:
            raise ParameterError("sigma is only meaningful for the Gaussian family")

    def __eq__(self, other):
        if not isinstance(other, LevyFamily):
            return NotImplemented
        if self.kind is not other.kind or self.d != other.d:
            return False
        if self.sigma is None:
            return other.sigma is None
        return other.sigma is not None and np.array_equal(self.sigma, other.sigma)

    def __repr__(self):
        extra = ", sigma=<matrix>" if self.sigma is not None else ""
        return f"LevyFamily({self.kind.value}, d={self.d}{extra})"


def poisson_family(d: int) -> LevyFamily:
    return LevyFamily(FamilyKind.POISSON, d)


def gaussian_family(d: int, sigma=None) -> LevyFamily:
    if sigma is None:
        sigma = np.eye(d)
    return LevyFamily(FamilyKind.GAUSSIAN, d, sigma)


def gamma_family(d: int) -> LevyFamily:
    return LevyFamily(FamilyKind.GAMMA, d)


def wishart_family(d: int) -> LevyFamily:
    return LevyFamily(FamilyKind.WISHART, d)


class Example(NamedTuple):
    """One row of an :class:`ExampleBatch`, as plain values (unchecked; the
    batch holds the checks)."""

    x: np.ndarray
    y: int
    t: float


class PseudoExample(NamedTuple):
    """One row of a :class:`PseudoBatch`, as plain values (unchecked; the
    batch holds the checks)."""

    x_tilde: np.ndarray
    y: int
    origin_id: int
    alpha: float
    t_tilde: float


def check_alpha(alpha) -> None:
    """Thinning fractions (a scalar or an array of them) must lie in (0, 1]."""
    a = np.asarray(alpha, dtype=float)
    bad = ~((a > 0.0) & (a <= 1.0))
    if np.any(bad):
        raise ParameterError(f"alpha must lie in (0, 1], got {a[bad].flat[0]}")


def _column_dtype(name: str) -> type:
    """The type of a batch's per-row column ``name``: int64 for labels
    and origin ids, float64 for the rest."""
    return np.int64 if name in ("y", "origin_id") else np.float64


class _Batch:
    """Rows stored as read-only columns: the first field holds the features,
    of shape (rows, *feature shape), every other field one entry per row
    (scalars broadcast).  Checked once, here, for what every batch shares:
    labels ``y`` are 1-based and the information content (the last field)
    is positive and finite.  ``batch[i]`` is row ``i`` as a ``_row`` tuple."""

    def __post_init__(self):
        first, *rest = (f.name for f in fields(self))
        x = np.asarray(getattr(self, first)).view()
        x.setflags(write=False)
        if x.ndim < 2:
            raise ShapeError(f"{first} must be (rows, *features), got shape {x.shape}")
        object.__setattr__(self, first, x)
        for name in rest:
            dtype = _column_dtype(name)
            try:  # broadcast_to returns a read-only view
                col = np.broadcast_to(np.asarray(getattr(self, name), dtype), x.shape[:1])
            except ValueError:
                raise ShapeError(f"{name} must have one entry per row") from None
            object.__setattr__(self, name, col)
        if np.any(self.y < 1):
            raise ParameterError("class labels are 1-based")
        if not np.all((col > 0.0) & np.isfinite(col)):  # col: the last field
            raise ParameterError("information content must be positive and finite")

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, i: int):
        x, *columns = (getattr(self, f.name) for f in fields(self))
        return self._row(x[i], *(col[i].item() for col in columns))


@dataclass(frozen=True, eq=False)
class ExampleBatch(_Batch):
    """Labelled observations: features ``x`` of shape (rows, *feature
    shape), and per row the class ``y`` in 1..K and the information content
    ``t`` (the process time of the slice).  :func:`check_example` checks
    the features against a family."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    _row = Example


Examples = ExampleBatch | Sequence[Example]


def as_example_batch(examples: Examples) -> ExampleBatch:
    """A batch as it is, or a sequence of :class:`Example` rows as a batch."""
    if isinstance(examples, ExampleBatch):
        return examples
    if len(examples) == 0:
        return ExampleBatch(x=np.zeros((0, 0)), y=1, t=1.0)
    x, y, t = zip(*examples)
    return ExampleBatch(x=np.stack(x), y=y, t=t)


@dataclass(frozen=True, eq=False)
class PseudoBatch(_Batch):
    """Thinned copies of examples, one row per copy: features ``x_tilde``
    of shape (rows, *feature shape), and per row the class ``y``, the index
    ``origin_id`` of the original, the fraction ``alpha`` and the thinned
    information content ``t_tilde`` (``alpha * t``)."""

    x_tilde: np.ndarray
    y: np.ndarray
    origin_id: np.ndarray
    alpha: np.ndarray
    t_tilde: np.ndarray
    _row = PseudoExample

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.origin_id < 0):
            raise ParameterError("origin ids must be nonnegative")
        check_alpha(self.alpha)


# --------------------------------------------------------------------------
# Support checks
# --------------------------------------------------------------------------

def _check_pd(m: np.ndarray, what: str) -> None:
    if not _is_symmetric(m):
        raise SupportError(f"{what} must be a symmetric matrix")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise SupportError(f"{what} must be positive-definite") from None


# Values per block wherever a loop over blocks of rows or columns keeps a
# temporary from being the size of the whole array: the integer check of
# float counts here, the text reader and writers, and the logistic fits.
_BLOCK = 8192

_COUNT_DTYPES = (np.uint8, np.uint16, np.uint32, np.int64)


def _compact_counts(counts: np.ndarray) -> np.ndarray:
    """Nonnegative integer counts in the first of uint8, uint16, uint32
    and int64 that holds the largest of them.  A thinned copy never
    exceeds its original, so the originals' type holds every copy.  No
    uint64: the binomial sampler refuses it as a count.  Counts too large
    for int64 raise :class:`SupportError`.  Unsigned counts wrap on
    subtraction, so arithmetic on them must cast to float first."""
    top = int(counts.max(initial=0))
    for dtype in _COUNT_DTYPES:
        if top <= np.iinfo(dtype).max:
            return counts.astype(dtype, copy=False)
    raise SupportError(f"Poisson counts must be below 2**63, got {top}")


def _check_rows(family: LevyFamily, rows) -> np.ndarray:
    """The support rules of :func:`check_example`, applied to every row of
    a stack of shape (rows, *feature shape); returns the checked stack
    (Poisson counts in the type :func:`_compact_counts` picks).  Every
    support check runs through here."""
    arr = np.asarray(rows)
    kind = family.kind
    shape = (family.d, family.d) if kind is FamilyKind.WISHART else (family.d,)
    if arr.shape[1:] != shape:
        raise SupportError(f"{kind.value} features must have shape {shape}, got {arr.shape[1:]}")
    if kind is FamilyKind.POISSON:
        return _check_counts(arr)
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise SupportError("features must be finite")
    if kind is FamilyKind.GAMMA and np.any(arr <= 0.0):
        raise SupportError("Gamma features must be strictly positive")
    if kind is FamilyKind.WISHART:
        _check_pd(arr, "Wishart feature matrix")
    return arr


def _check_counts(arr: np.ndarray) -> np.ndarray:
    """Poisson rows of shape (rows, d) as compact counts.  Integer rows are
    checked as they are: exact, with no float copy.  Float rows, such as a
    block of a parsed file's features, are checked by reductions and by
    blocks of rows, so that no temporary is the size of the stack and the
    only copy made is the compact one."""
    integers = arr.dtype.kind in "iu"
    if not integers:
        arr = np.asarray(arr, dtype=float)
    lo, hi = arr.min(initial=0), arr.max(initial=0)  # a nan carries through both
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise SupportError("features must be finite")
    step = max(1, _BLOCK // arr.shape[1])
    blocks = (arr[i : i + step] for i in range(0, len(arr), step))
    if lo < 0 or not (integers or all(np.array_equal(b, np.floor(b)) for b in blocks)):
        raise SupportError("Poisson features must be nonnegative integers")
    return _compact_counts(arr)


def check_example(family: LevyFamily, batch: ExampleBatch) -> np.ndarray:
    """Validate every row of a batch against a family; return the features.

    Vector families expect length-``d`` rows (Poisson: nonnegative
    integers below 2**63, returned in the smallest of uint8, uint16,
    uint32 and int64 that holds the batch's largest; Gaussian: finite
    reals; Gamma: strictly positive reals); the Wishart family expects
    ``d x d`` symmetric positive-definite matrices and the density
    condition ``t >= d``.
    Raises :class:`SupportError` on violation.
    """
    x = _check_rows(family, batch.x)
    if family.kind is FamilyKind.WISHART and np.any(batch.t < family.d):
        t = batch.t.min()
        raise SupportError(f"Wishart examples need t >= d for a density; got t={t}, d={family.d}")
    return x


# --------------------------------------------------------------------------
# Carriers and the thinning density
# --------------------------------------------------------------------------

def _log_carrier(family: LevyFamily, x: np.ndarray, t: float) -> float:
    """log h_t(x), the theta-free carrier of the family's t-marginal, at a
    checked ``x`` and ``t``.

    Exact (normalized) for Poisson, Gaussian and Gamma.  For Wishart the
    multivariate-gamma constant is dropped, so only carrier *ratios* are
    meaningful for that family.
    """
    from scipy.special import gammaln

    kind, d = family.kind, family.d
    if kind is FamilyKind.POISSON:
        xi = np.asarray(x, dtype=float)
        return float((xi * np.log(t) - gammaln(xi + 1.0)).sum())
    if kind is FamilyKind.GAUSSIAN:
        sigma = family.sigma
        sol = np.linalg.solve(sigma, x)
        _, logdet = np.linalg.slogdet(sigma)
        return float(-0.5 * (x @ sol) / t - 0.5 * d * np.log(2.0 * np.pi * t) - 0.5 * logdet)
    if kind is FamilyKind.GAMMA:
        return float(
            (0.5 * t - 1.0) * np.log(x).sum()
            - d * gammaln(0.5 * t)
            - 0.5 * d * t * np.log(2.0)
        )
    return float(0.5 * (t - d - 1.0) * np.linalg.slogdet(x)[1])


def thinning_log_density(
    family: LevyFamily,
    x,
    x_tilde,
    t: float,
    alpha: float,
) -> float:
    """Log-density of the thinned slice ``x_tilde`` given the observed
    ``x`` at time ``t``, evaluated as the carrier ratio

        log h_{alpha t}(x_tilde) + log h_{(1-alpha) t}(x - x_tilde) - log h_t(x).

    In particular this equals the product-binomial log-pmf for Poisson,
    the N(alpha x, alpha (1-alpha) t Sigma) log-density for Gaussian, and
    the product of scaled Beta(alpha t/2, (1-alpha) t/2) log-densities for
    Gamma.  For Wishart the value is unnormalized (the carrier constant
    is omitted; its sampler is validated distributionally instead).

    ``x``, ``x_tilde`` and the increment ``x - x_tilde`` (domination) are
    checked against the support as one batch, with their times ``t``,
    ``alpha t`` and ``(1 - alpha) t``.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in the open interval (0, 1), got {alpha}")
    x, x_tilde = np.asarray(x, dtype=float), np.asarray(x_tilde, dtype=float)
    if x.shape != x_tilde.shape:
        raise SupportError(f"x has shape {x.shape} but x_tilde has shape {x_tilde.shape}")
    times = (t, alpha * t, (1.0 - alpha) * t)
    batch = ExampleBatch(x=np.stack([x, x_tilde, x - x_tilde]), y=1, t=times)
    x, x_tilde, rest = check_example(family, batch)
    return (
        _log_carrier(family, x_tilde, times[1])
        + _log_carrier(family, rest, times[2])
        - _log_carrier(family, x, times[0])
    )
