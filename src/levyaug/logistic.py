"""Multiclass ridge logistic regression on pseudo-examples.

The trained object is a coefficient matrix ``beta`` of shape (p, K) whose
column k scores class k; the per-example loss is

    loss(beta; x, y) = log sum_k exp(beta_k . phi(x)) - beta_y . phi(x),

and fitting minimizes the *average* loss over pseudo-examples plus the
ridge penalty ``lambda/2 * ||beta||_F^2``.  The coefficient matrix is kept
in the centered gauge (columns sum to zero featurewise), which the ridge
penalty already selects among the loss-equivalent shifts.

A two-class fit optimizes the single p-vector ``w = beta_2 - beta_1``.  In
the centered gauge ``beta = [-w/2, w/2]``, so ``||beta||_F^2 = ||w||^2 / 2``
and, with the label sign ``s = -1`` for class 1 and ``+1`` for class 2, the
objective is

    mean logaddexp(0, -s * w . phi(x)) + lambda/4 * ||w||^2.

Its gradient in ``w`` is the ``beta_2`` column of the gradient in ``beta``
(the ``beta_1`` column is its negative), so the gradient max-norm, and
with it the tolerance, is the same quantity in either parametrization.

The stopping rule is the solver's, not the caller's: every fit must bring
the gradient max-norm to at most ``_FIT_TOL`` = 1e-7, in at most
``_FIT_MAX_ITER`` = 500 iterations per lambda, or raise
:class:`OptimizationError`.  A two-class fit on a design whose smaller side,
min(n, p), is at most 256 is one ``scipy.optimize.minimize`` call of damped
Newton (``_newton``).  When n < p each step is an n x n solve through the
Woodbury identity, with X X' formed once per ``_fit_path`` call: for each
(lambda, fold) of cross-validation and once for the refit path; otherwise
it is a Cholesky solve of the p x p Hessian.  More classes and larger
designs run L-BFGS-B.  When it stops short of the tolerance for any reason
but its iteration or evaluation limit, a second ``minimize`` call finishes
with up to three iterations of ``_newton``.  The threshold is where Newton
stops being the cheaper path.
On one BLAS thread, a warm-started 12-lambda path at p = 500 took:

    n = 100: Newton  7 ms, L-BFGS-B 22 ms (Poisson counts), 16 ms (Gaussian)
    n = 256: Newton 31 ms, L-BFGS-B 42 ms (Poisson counts); 34 against 33 ms (Gaussian)
    n = 400: Newton 90 ms, L-BFGS-B 74 ms (Poisson counts); 109 against 54 ms (Gaussian)

A design with fewer than 35% nonzero entries, such as Poisson counts thinned
at a small alpha, is stored once as a float64 CSC matrix; a denser one is a
dense array.  ``X @ w`` runs on the CSC arrays and ``X.T @ r`` on the same
arrays read as CSR, so no transpose is built, and each adds an output's
terms in ascending index order, as a CSR product does.  A cross-validation
fold solved by L-BFGS-B reads a CSC design through a row mask: its
objective scores every row and keeps the fold's, and puts the fold's
residuals into zeros before ``X.T @``, so every sum is the fold's own, bit
for bit, and no fold is copied.  The other folds are sliced.  A dense fold
is, because BLAS may sum a row differently among other rows.  A
Newton-sized fold is, because its Gram matrix and Hessians read a CSR copy
of its rows, densified a block of rows at a time; an L-BFGS-B solve makes
that copy only if its Newton finish runs.  One two-class loss/gradient
evaluation on a 2,560-row fold of a 3,200 x 500 Poisson design (8b's
design at alphas 0.1 to 0.35), on one BLAS thread, took (the least of 7
rounds of 150 evaluations):

    nonzeros  0.18: dense 0.95 ms, CSC under the mask 0.54 ms, CSR copy 0.44 ms
              0.33: dense 0.91 ms, CSC under the mask 0.94 ms, CSR copy 0.73 ms
              0.39: dense 0.91 ms, CSC under the mask 1.10 ms, CSR copy 0.82 ms
              0.50: dense 0.91 ms, CSC under the mask 1.36 ms, CSR copy 1.09 ms

The mask spends every evaluation on all 3,200 rows, but the CSR copy and
its transpose cost 3.1 to 5.4 ms per (lambda, fold) and about 1.6 designs'
bytes.  The threshold stays at 35%, where the CSR copies met dense: moving
it would move designs between the sparse and the dense path, whose sums
differ in the last bits.

The regularization weight can be cross-validated on a descending grid of
lambdas with *grouped* folds: every pseudo-example derived from one
original lands in the same fold, so held-out scores are not contaminated
by siblings of the training copies.

Calibration refits one common scale and per-class intercepts on the
original (unthinned) examples while keeping the fitted directions, which
compensates for the coefficient shrinkage/inflation thinning induces.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._blas import single_thread
from .errors import (
    DataFormatError,
    DegenerateDataError,
    LevyAugError,
    OptimizationError,
    ParameterError,
    ShapeError,
)
from .families import _BLOCK, Examples, FamilyKind, LevyFamily, PseudoBatch, as_example_batch

__all__ = [
    "FeatureMap",
    "LogisticModel",
    "TrainConfig",
    "FitReport",
    "fit_logistic_detailed",
    "calibrate",
    "predict",
    "grouped_fold_assignment",
    "default_lambda_grid",
    "save_model",
    "load_model",
]

_SCALE_CAP = 1e3
_LAMBDA_GRID_SIZE, _LAMBDA_GRID_SPAN = 50, 1e-4
_CALIB_TOL, _CALIB_MAX_ITER = 1e-9, 500
_CSR_MAX_DENSITY = 0.35  # a design with fewer nonzeros than this fraction is CSC
_CV_PATIENCE = 3  # lambdas without a new best mean held-out loss before CV stops


class FeatureMap(enum.Enum):
    """phi: identity on vectors, row-major flattening on symmetric matrices."""

    IDENTITY = "identity"
    FLATTEN_SYMMETRIC = "flatten_symmetric"


def _phi_rows(fm: FeatureMap, X, p: int | None = None, dtype=float) -> np.ndarray:
    """phi applied to every row of a stack of examples: an (n, p) design of
    ``dtype`` (None keeps the input's).  A row shape phi cannot take, or a
    width other than ``p``, is a ShapeError."""
    X = np.asarray(X, dtype=dtype)
    item_ndim = 1 if fm is FeatureMap.IDENTITY else 2
    if X.ndim != item_ndim + 1 or (item_ndim == 2 and X.shape[1] != X.shape[2]):
        raise ShapeError(f"{fm.value} feature map cannot take rows of shape {X.shape[1:]}")
    X = X.reshape(X.shape[0], -1)
    if p is not None and X.shape[1] != p:
        raise ShapeError(f"model expects {p} features, got {X.shape[1]}")
    return X


def center_columns(beta: np.ndarray) -> np.ndarray:
    """Project onto the gauge sum_k beta[:, k] = 0."""
    return beta - beta.mean(axis=1, keepdims=True)


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Fitted coefficients plus calibration state.

    ``beta`` must be in the centered gauge.  An uncalibrated model has
    ``calib_c = 0`` and ``calib_scale = 1``; prediction always scores
    ``calib_scale * beta_k . phi(x) + calib_c[k]``.
    """

    beta: np.ndarray
    calib_c: np.ndarray | None = None
    calib_scale: float = 1.0
    feature_map: FeatureMap = FeatureMap.IDENTITY

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 2 or beta.shape[1] < 2:
            raise ShapeError("beta must be a p x K matrix with K >= 2")
        if not np.all(np.isfinite(beta)):
            raise ParameterError("beta must be finite")
        gauge = np.abs(beta.sum(axis=1)).max()
        if gauge > 1e-8:
            raise ParameterError(
                f"beta violates the centered gauge (max column-sum {gauge:.3e})"
            )
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        c = self.calib_c
        c = np.zeros(beta.shape[1]) if c is None else np.array(c, dtype=float)
        if c.shape != (beta.shape[1],):
            raise ShapeError("calib_c must have one entry per class")
        c.setflags(write=False)
        object.__setattr__(self, "calib_c", c)
        # A binary recalibration slope may legitimately come out negative;
        # for K > 2 the common scale is constrained nonnegative.
        if self.calib_scale < 0.0 and beta.shape[1] > 2:
            raise ParameterError("calib_scale must be nonnegative for K > 2 models")

    @property
    def n_features(self) -> int:
        return self.beta.shape[0]

    @property
    def n_classes(self) -> int:
        return self.beta.shape[1]


def _check_ridge(lam) -> None:
    """Ridge penalties (one value or a grid of them) must be finite and
    nonnegative."""
    a = np.asarray(lam, dtype=float)
    bad = ~(np.isfinite(a) & (a >= 0.0))
    if np.any(bad):
        raise ParameterError(f"ridge_lambda must be finite and nonnegative, got {a[bad].flat[0]}")


@dataclass(frozen=True)
class TrainConfig:
    """What a fit may choose: the ridge penalty or its grid, and the number
    of cross-validation folds.  The solver's stopping rule is fixed (see the
    module docstring).

    ``ridge_lambda`` may be a single value (no CV), an explicit grid
    (normalized to descending order), or None for the default grid of 50
    log-spaced values spanning a 1e4 range below the gradient scale of the
    unpenalized loss at beta = 0.  Cross-validation walks a grid from its
    largest lambda down, with every fold at each lambda, and stops once the
    mean held-out log-loss has failed to beat its best value for 3 lambdas
    in a row; it picks the lambda with the least mean held-out log-loss
    among those it solved.  A grid of 3 or fewer values is always solved
    whole.
    """

    ridge_lambda: float | tuple[float, ...] | None = None
    n_folds: int = 5

    def __post_init__(self):
        if self.n_folds < 2:
            raise ParameterError("n_folds must be >= 2")
        lam = self.ridge_lambda
        if lam is None:
            return
        _check_ridge(lam)
        if np.isscalar(lam):
            return
        grid = tuple(sorted((float(v) for v in lam), reverse=True))
        if len(grid) == 0:
            raise ParameterError("lambda grid must be nonempty")
        object.__setattr__(self, "ridge_lambda", grid)


@dataclass(frozen=True)
class FitReport:
    """What the fit did: the lambda finally used, the per-lambda CV table
    (lambda, mean held-out loss, mean held-out error), and the final
    gradient max-norm.  The table has one row per grid value, in descending
    order; the rows past the point where cross-validation stopped (see
    :class:`TrainConfig`) have NaN loss and error.  Without CV it is empty."""

    chosen_lambda: float
    cv_table: tuple[tuple[float, float, float], ...]
    grad_max_norm: float


# --------------------------------------------------------------------------
# Loss and gradient
# --------------------------------------------------------------------------

def _logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis``, shifted by the maximum.  An all
    -inf slice gives -inf and a +inf entry gives +inf.  (scipy's version
    costs several times more per call on small arrays.)"""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m[~np.isfinite(m)] = 0.0  # then only a slice holding +inf can overflow, to +inf
    with np.errstate(divide="ignore", over="ignore"):
        total = np.log(np.sum(np.exp(a - m), axis=axis))
    return total + np.squeeze(m, axis=axis)


def _softmax(scores):
    """Each row's softmax of ``scores``, and its log-sum-exp."""
    lse = _logsumexp(scores, axis=1)
    return np.exp(scores - lse[:, None]), lse


def _softmax_loss(scores, Y):
    """Per-row log-loss of the 1-based labels ``Y`` under ``scores``, and
    each row's gradient in its scores (softmax minus one-hot)."""
    rows = np.arange(len(Y))
    resid, lse = _softmax(scores)
    resid[rows, Y - 1] -= 1.0
    return lse - scores[rows, Y - 1], resid


def _take(a, rows):
    """The ``rows`` (a boolean mask; None for all) of ``a``."""
    return a if rows is None else a[rows]


def _spread(a, rows):
    """``a``, the values of the ``rows`` (a boolean mask; None for all),
    placed in zeros covering every row.  ``X.T @ _spread(r, rows)`` then
    adds an exact zero for each row outside the mask, so every sum equals
    the one over the masked rows alone, bit for bit."""
    if rows is None:
        return a
    full = np.zeros((len(rows),) + a.shape[1:])
    full[rows] = a
    return full


def _batch_loss_grad(beta, X, Y, lam, XT, rows=None):
    """Average loss + ridge over a design and its gradient in ``beta.ravel()``
    order; ``XT`` is ``X.T`` (for a CSC design, a CSR view of its arrays).
    With the boolean mask ``rows`` the average covers those rows of ``X``
    alone, and ``Y`` holds their labels."""
    beta = beta.reshape(X.shape[1], -1)
    losses, resid = _softmax_loss(_take(X @ beta, rows), Y)
    value = losses.mean() + 0.5 * lam * (beta**2).sum()
    return value, (XT @ _spread(resid, rows) / len(losses) + lam * beta).ravel()


def _dense(a):
    return a if isinstance(a, np.ndarray) else a.toarray()


def _dense_row_blocks(X):
    """(first row, block) over ``X`` in dense blocks of about
    _BLOCK entries, so that no temporary is the size of ``X``."""
    rows = max(1, _BLOCK // X.shape[1])
    for lo in range(0, X.shape[0], rows):
        yield lo, _dense(X[lo : lo + rows])


def _batch_hessian(beta, X, lam):
    """Exact Hessian of :func:`_batch_loss_grad` in ``beta.ravel()`` order:
    block (a, b) is X' diag(p_a (1{a=b} - p_b)) X / n, plus lam I."""
    beta = beta.reshape(X.shape[1], -1)
    (n, p), k = X.shape, beta.shape[1]
    scores = X @ beta
    prob = _softmax(scores)[0]
    w = (prob[:, :, None] * (np.eye(k) - prob[:, None, :]) / n).reshape(n, k * k)
    blocks = np.zeros((k * k, p, p))
    for lo, block in _dense_row_blocks(X):
        blocks += (block.T * w[lo : lo + len(block)].T[:, None, :]) @ block
    hess = blocks.reshape(k, k, p, p).transpose(2, 0, 3, 1).reshape(p * k, p * k)
    return hess + lam * np.eye(p * k)


def _binary_loss_grad(w, X, sign, lam, XT, rows=None):
    """The two-class objective in ``w`` (see the module docstring) and its
    gradient; ``sign`` is -1 for class 1 and +1 for class 2, and ``XT`` and
    ``rows`` are as in :func:`_batch_loss_grad`."""
    margin = -sign * _take(X @ w, rows)
    losses = np.logaddexp(0.0, margin)
    resid = -sign * np.exp(margin - losses)  # -s * sigmoid(-s z)
    value = losses.mean() + 0.25 * lam * (w @ w)
    return value, XT @ _spread(resid, rows) / len(losses) + 0.5 * lam * w


def _binary_curvature(z):
    """q (1 - q) with q = sigmoid(z), computed without overflow."""
    return np.exp(-np.logaddexp(0.0, z) - np.logaddexp(0.0, -z))


def _binary_hessian(w, X, lam):
    """Exact Hessian of :func:`_binary_loss_grad`:
    X' diag(q (1 - q)) X / n + lam/2 I with q = sigmoid(w . x), summed
    over dense blocks of rows."""
    curv = _binary_curvature(X @ w) / X.shape[0]
    hess = 0.5 * lam * np.eye(X.shape[1])
    for lo, block in _dense_row_blocks(X):
        hess += (block.T * curv[lo : lo + len(block)]) @ block
    return hess


def _heldout_metrics(beta, X, Y, rows):
    """Mean log-loss and error rate of ``beta`` on the ``rows`` (a boolean
    mask) of a design.  A sparse design is scored whole and the rows kept,
    as each row's score is the same sum either way; a dense one is sliced
    first, as BLAS may sum a row differently within another block of rows."""
    if isinstance(X, np.ndarray):
        scores = X[rows] @ beta
    else:
        scores = (X @ beta)[rows]
    Y = Y[rows]
    loss = float(_softmax_loss(scores, Y)[0].mean())
    return loss, float((np.argmax(scores, axis=1) + 1 != Y).mean())


# --------------------------------------------------------------------------
# Solvers
# --------------------------------------------------------------------------

_FIT_TOL, _FIT_MAX_ITER = 1e-7, 500  # every fit's gradient max-norm bound; its iteration limit
_NEWTON_STEPS = 3
_NEWTON_MAX_DIM = 256
_ARMIJO, _BACKTRACKS = 1e-4, 40


def _spd_solve(a, b):
    """Solve ``a x = b`` for a symmetric positive-definite ``a`` by Cholesky
    (LAPACK dposv; it overwrites ``a``).  A failed factorization gives NaN."""
    from scipy.linalg.lapack import dposv

    _, x, info = dposv(a, b, overwrite_a=True)
    return x if info == 0 else np.full_like(b, np.nan)


def _newton_step(hess, X, lam, gram=None):
    """``step(c, g)``, the Newton step H(c)^{-1} g of the objective whose
    Hessian is ``hess(c, X, lam)``, for flat ``c`` and ``g``.

    Given the Gram matrix ``gram = X X'`` of a two-class design and
    lam > 0, it never forms the p x p Hessian.  That Hessian is
    c I + A'A with c = lam/2, A = S X and S = diag(sqrt(q (1 - q) / n)), so
    by the Woodbury identity

        H^{-1} g = (g - A' (c I + S X X' S)^{-1} A g) / c,

    one n x n solve.  Otherwise the step solves the Hessian itself: lam > 0
    makes it positive definite, and at lam = 0 a least-squares solve copes
    with a singular one.
    """
    if lam == 0.0 or gram is None:
        solve = _spd_solve if lam > 0.0 else lambda a, b: np.linalg.lstsq(a, b, rcond=None)[0]
        return lambda c, g: solve(hess(c, X, lam), g)
    n, ridge = X.shape[0], 0.5 * lam

    def woodbury(w, g):
        s = np.sqrt(_binary_curvature(X @ w) / n)
        system = gram * np.outer(s, s)
        system.flat[:: n + 1] += ridge
        u = _spd_solve(system, s * (X @ g))
        return (g - X.T @ (s * u)) / ridge

    return woodbury


def _newton(fun, x0, jac, step, maxiter, gtol, **_):
    """Damped Newton as a custom ``scipy.optimize.minimize`` method: call it
    with ``jac=True`` and the options ``step`` (see :func:`_newton_step`),
    ``maxiter`` and ``gtol``.

    Each iteration moves from x to x - t d, d = step(x, g), with the largest
    t in 1, 1/2, 1/4, ... that meets Armijo's condition
    f(x - t d) <= f(x) - 1e-4 t g.d.  The condition allows f a few ulps of
    rounding, so that near the minimum, where f no longer decreases in
    floating point, the full step is still taken.  It stops when the
    gradient max-norm is at most ``gtol`` or not finite, after ``maxiter``
    iterations, or when none of the first 40 values of t meets it.
    """
    from scipy.optimize import OptimizeResult

    x, f, g = x0, fun(x0), jac(x0)
    nit, nfev = 0, 1
    while True:
        grad_norm = np.abs(g).max()
        if grad_norm <= gtol:
            message = "gradient max-norm at most gtol"
            break
        if not np.isfinite(grad_norm):
            message = "gradient is not finite"
            break
        if nit == maxiter:
            message = "iteration limit reached"
            break
        d = step(x, g)
        slope, t, slack = float(g @ d), 1.0, 8.0 * np.finfo(float).eps * abs(f)
        for _ in range(_BACKTRACKS):
            trial = x - t * d
            f_trial = fun(trial)
            nfev += 1
            if f_trial <= f - _ARMIJO * t * slope + slack:
                break
            t *= 0.5
        else:
            message = "line search found no decrease"
            break
        x, f, g, nit = trial, f_trial, jac(trial), nit + 1
    return OptimizeResult(
        x=x, fun=f, jac=g, nit=nit, nfev=nfev, message=message, success=grad_norm <= gtol
    )


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the call.  Every solve calls
    it through this module-level name, looked up at call time, so that a
    wrapper set on it (a tracer, a test spy) sees every solve."""
    import scipy.optimize

    return scipy.optimize.minimize(*args, **kwargs)


def _minimize(fun_grad, x0: np.ndarray, max_iter: int, what: str, step=None, newton=False):
    """Minimize ``fun_grad`` (value and gradient of a flat vector) from the
    flat ``x0`` to gradient max-norm _FIT_TOL in at most ``max_iter``
    iterations, else raise :class:`OptimizationError` naming each stage
    that ran.

    The solve is damped Newton along ``step`` (:func:`_newton`) when
    ``newton`` is set, else L-BFGS-B.  L-BFGS-B also stops once f no longer
    decreases in floating point ("relative reduction of f"), which can leave
    the gradient just above the tolerance.  When it stops short for any
    reason but its iteration or evaluation limit and ``step`` (a
    :func:`_newton_step`) is given, a second ``minimize`` call runs at most
    _NEWTON_STEPS iterations of :func:`_newton` from its end point.
    """
    tol, stages = _FIT_TOL, []

    def solve(x, method, **options):
        res = minimize(fun_grad, x, jac=True, method=method, options=options)
        stages.append(("Newton" if method is _newton else method, res))
        return res

    if newton:
        res = solve(x0, _newton, step=step, maxiter=max_iter, gtol=tol)
    else:
        res = solve(x0, "L-BFGS-B", maxiter=max_iter, maxfun=20 * max_iter, gtol=0.1 * tol,
                    ftol=0.0)
        if step is not None and res.status != 1 and np.abs(res.jac).max() > tol:
            res = solve(res.x, _newton, step=step, maxiter=_NEWTON_STEPS, gtol=tol)
    grad_norm = float(np.abs(res.jac).max())
    if not grad_norm <= tol:  # a NaN gradient fails too
        ran = ", then ".join(
            f"{solver} stopped after {r.nit} iterations ({r.message})" for solver, r in stages
        )
        raise OptimizationError(
            f"{what} did not converge: {ran} with gradient max-norm {grad_norm:.3e} "
            f"> tol {tol:.1e}",
            grad_norm=grad_norm,
        )
    return res.x, grad_norm


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------

def _check_labels(Y, k: int) -> None:
    """Every label lies in 1..k: the half of :func:`_check_classes` scoring needs."""
    bad = np.setdiff1d(Y, np.arange(1, k + 1))
    if bad.size:
        raise ShapeError(f"class label {bad[0]} is outside 1..{k}")


def _check_classes(Y: np.ndarray, k: int | None = None) -> int:
    """Labels to fit or calibrate on: not empty, each in 1..k (default: the
    largest label, which is returned) and every class present."""
    if len(Y) == 0:
        raise DegenerateDataError("no examples")
    k = int(Y.max()) if k is None else k
    _check_labels(Y, k)
    missing = sorted(set(range(1, k + 1)) - set(Y.tolist()))
    if missing:
        raise DegenerateDataError(f"no examples for class label(s) {missing}")
    return k


def _csc(x: np.ndarray, nnz: int):
    """``x``, which has ``nnz`` nonzero entries, as a float64 CSC array with
    int32 indices (int64 past 2^31 nonzeros), built a block of columns at a
    time so that no temporary is the size of ``x``."""
    from scipy.sparse import csc_array

    n, p = x.shape
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(p + 1, dtype=index)
    data, indices = np.empty(nnz), np.empty(nnz, dtype=index)
    cols = max(1, _BLOCK // n)
    for lo in range(0, p, cols):
        block = x[:, lo : lo + cols].T
        c, r = np.nonzero(block)  # by column, then by row
        start = indptr[lo]
        indptr[lo + 1 : lo + 1 + len(block)] = start + np.bincount(c, minlength=len(block)).cumsum()
        data[start : start + len(c)], indices[start : start + len(c)] = block[c, r], r
    return csc_array((data, indices, indptr), shape=(n, p))


def _design(pseudo: PseudoBatch):
    """The fit's design matrix, labels, groups and feature map.  The design
    is CSC when fewer than _CSR_MAX_DENSITY of its entries are nonzero
    (see the module docstring), else a dense float64 array."""
    matrices = pseudo.x_tilde.ndim == 3
    feature_map = FeatureMap.FLATTEN_SYMMETRIC if matrices else FeatureMap.IDENTITY
    x = _phi_rows(feature_map, pseudo.x_tilde, dtype=None)
    nnz = np.count_nonzero(x)
    X = _csc(x, nnz) if nnz < _CSR_MAX_DENSITY * x.size else x.astype(float, copy=False)
    return X, pseudo.y, pseudo.origin_id, feature_map


def default_lambda_grid(X, Y: np.ndarray):
    """Descending log-spaced grid anchored at the max-norm of the
    unpenalized average-loss gradient at beta = 0."""
    k = int(Y.max())
    n = X.shape[0]
    p0 = np.full((n, k), 1.0 / k)
    p0[np.arange(n), Y - 1] -= 1.0
    lam_max = float(np.abs(X.T @ p0 / n).max())
    if lam_max <= 0.0:
        lam_max = 1.0
    return tuple(np.geomspace(lam_max, lam_max * _LAMBDA_GRID_SPAN, _LAMBDA_GRID_SIZE).tolist())


def grouped_fold_assignment(groups: np.ndarray, n_folds: int) -> np.ndarray:
    """Fold index per row; every row sharing a group id shares a fold (the
    i-th smallest group id goes to fold i mod n_folds)."""
    uniq, index = np.unique(groups, return_inverse=True)
    if len(uniq) < n_folds:
        raise DegenerateDataError(
            f"{n_folds}-fold CV needs at least {n_folds} distinct origins, got {len(uniq)}"
        )
    return index % n_folds


def _fit_path(X, Y, lambdas, coef=None, rows=None):
    """Fit the descending lambda path with warm starts, the first solve
    starting from the flat coefficient ``coef`` (default zero); returns one
    (beta, gradient max-norm) per lambda and the final flat coefficient, the
    warm start of a path that continues this one.  Continuing a path this
    way repeats exactly the solves of one longer path.  Cross-validation
    (:func:`_cross_validate`) fits each fold so, one lambda at a time, and
    stops every fold's path once the mean held-out loss has failed to beat
    its best value for _CV_PATIENCE lambdas in a row; the smaller lambdas
    are never solved, and their CV table rows are NaN.  The refit at the
    chosen lambda is one path from the top of the grid.

    Two classes are fit in ``w = beta_2 - beta_1``, more classes in
    ``beta`` itself.  A two-class design with min(n, p) <= _NEWTON_MAX_DIM
    is solved by damped Newton at every lambda > 0 (through the Woodbury
    identity when n < p, on a Gram matrix formed once per call); the rest
    by L-BFGS-B with the Newton finish.
    ``X`` may be dense, CSC or CSR.

    The fit covers the ``rows`` of ``X`` and ``Y`` (a boolean mask; None for
    all).  An L-BFGS-B solve on a sparse design reads them through the
    mask, with no copy (see :func:`_batch_loss_grad`).  Every other fit
    slices them: a dense product over masked-out rows need not sum like one
    over the rows alone, and a Newton solve reads its rows as CSR anyway.
    The Gram matrix and the Hessians read the fitted rows as CSR, a block
    of rows at a time; under a mask that copy is made only if the Newton
    finish runs."""
    Y = _take(Y, rows)
    (n, p), k = (len(Y), X.shape[1]), int(Y.max())
    newton = k == 2 and min(n, p) <= _NEWTON_MAX_DIM
    dense = isinstance(X, np.ndarray)
    if rows is not None and (dense or newton):
        X, rows = X[rows], None
    by_rows = functools.cache(lambda: X if dense else _take(X, rows).tocsr())
    gram = _dense(by_rows() @ by_rows().T) if newton and n < p else None
    XT = X.T
    if k == 2:
        loss_grad, hessian, width = _binary_loss_grad, _binary_hessian, p
        labels = 2.0 * Y - 3.0  # the sign s
    else:
        loss_grad, hessian, width = _batch_loss_grad, _batch_hessian, p * k
        labels = Y
    coef = np.zeros(width) if coef is None else coef
    out = []
    for lam in lambdas:
        coef, grad_norm = _minimize(
            lambda c: loss_grad(c, X, labels, lam, XT, rows),
            coef,
            _FIT_MAX_ITER,
            f"logistic fit at lambda={lam:.4g}",
            lambda c, g: _newton_step(hessian, by_rows(), lam, gram)(c, g),
            newton=newton and lam > 0.0,
        )
        out.append((np.stack([-coef / 2, coef / 2], axis=1) if k == 2 else coef.reshape(p, k),
                    grad_norm))
    return out, coef


def _cross_validate(X, Y, groups, lambdas, n_folds: int):
    """Mean held-out (loss, error) per lambda over grouped folds, as an
    (len(lambdas), 2) array; the rows past the stop are NaN.

    The folds advance together down the grid, each from its own warm
    start, and the loop stops once the mean held-out loss has failed to
    beat its best value for _CV_PATIENCE lambdas in a row: past the CV
    minimum the small-lambda solves are the costly ones.  Only the fold
    masks and warm starts persist between lambdas.  A fold reads a sparse
    design through its mask; a dense or Newton-sized fold is sliced again
    for every (lambda, fold), one at a time (see :func:`_fit_path`).
    """
    folds = grouped_fold_assignment(groups, n_folds)
    masks = [folds != f for f in range(n_folds)]
    for f, mask in enumerate(masks):
        if len(np.unique(Y[mask])) < int(Y.max()):
            raise DegenerateDataError(f"fold {f} lost a class; use fewer folds")
    coefs = [None] * n_folds
    scores = np.full((len(lambdas), 2, n_folds), np.nan)
    best, since_best = np.inf, 0
    for j, lam in enumerate(lambdas):
        for f, mask in enumerate(masks):
            [(beta, _)], coefs[f] = _fit_path(X, Y, (lam,), coefs[f], rows=mask)
            scores[j, :, f] = _heldout_metrics(beta, X, Y, ~mask)
        loss = scores[j, 0].mean()
        best, since_best = (loss, 0) if loss < best else (best, since_best + 1)
        if since_best == _CV_PATIENCE:
            break
    return scores.mean(axis=2)


def fit_logistic_detailed(
    pseudo: PseudoBatch, cfg: TrainConfig
) -> tuple[LogisticModel, FitReport]:
    """Ridge-penalized multiclass logistic fit on pseudo-examples: the model
    and a :class:`FitReport` of what the fit did.

    If the config carries a lambda grid, lambda is chosen by grouped
    k-fold cross-validation (all copies of one origin share a fold).
    Raises :class:`OptimizationError` when the gradient max-norm cannot be
    brought under the fixed tolerance (see the module docstring) and
    :class:`DegenerateDataError` when the batch is empty or some class has
    no examples.
    """
    with single_thread():
        _check_classes(pseudo.y)
        X, Y, groups, feature_map = _design(pseudo)
        lambdas = cfg.ridge_lambda
        if lambdas is None:
            lambdas = default_lambda_grid(X, Y)
        elif np.isscalar(lambdas):
            lambdas = (float(lambdas),)

        cv_table: tuple[tuple[float, float, float], ...] = ()
        if len(lambdas) == 1:
            chosen = lambdas[0]
        else:
            means = _cross_validate(X, Y, groups, lambdas, cfg.n_folds)
            cv_table = tuple(
                (lam, float(l), float(e)) for lam, (l, e) in zip(lambdas, means)
            )
            chosen = lambdas[int(np.nanargmin(means[:, 0]))]

        path, _ = _fit_path(X, Y, [lam for lam in lambdas if lam >= chosen])
        beta, grad_norm = path[-1]
        model = LogisticModel(beta=center_columns(beta), feature_map=feature_map)
        report = FitReport(
            chosen_lambda=float(chosen), cv_table=cv_table, grad_max_norm=grad_norm
        )
        return model, report


# --------------------------------------------------------------------------
# Calibration and prediction
# --------------------------------------------------------------------------

def calibrate(model: LogisticModel, originals: Examples) -> LogisticModel:
    """Refit scale and intercepts on uncorrupted originals.

    Keeps the fitted directions and minimizes the multiclass log-loss of
    ``s * beta_k . phi(x) + c_k`` over the common scale ``s`` and centered
    intercepts ``c``.  For two classes this is exactly a univariate
    logistic regression of the label on the fitted score.  A separable
    calibration set would send ``s`` to infinity; the scale is capped at
    1e3 (with a warning) instead.  Unlike a fit, it checks no gradient
    tolerance: it raises :class:`OptimizationError` only when its final loss
    or gradient is not finite.  An empty set or one of the model's K
    classes missing raises :class:`DegenerateDataError`; a label outside
    1..K or a width mismatch raises :class:`ShapeError`.
    """
    with single_thread():
        originals = as_example_batch(originals)
        k = _check_classes(originals.y, model.n_classes)
        X, Y = _phi_rows(model.feature_map, originals.x, model.n_features), originals.y
        U = X @ model.beta  # per-class raw scores
        counts = np.bincount(Y, minlength=k + 1)[1:].astype(float)

        centered = U - U.mean(axis=1, keepdims=True)
        if np.ptp(centered) < 1e-12:
            # Degenerate scores carry no information: scale 0, intercepts from
            # class frequencies.
            c = np.log(counts / counts.sum())
            return replace(model, calib_c=c - c.mean(), calib_scale=0.0)

        n = X.shape[0]

        def fun_grad(params):
            s = params[0]
            c = np.concatenate([params[1:], [0.0]])
            losses, p = _softmax_loss(s * U + c, Y)
            gs = float((p * U).sum() / n)
            gc = p.mean(axis=0)[:-1]
            return float(losses.mean()), np.concatenate([[gs], gc])

        x0 = np.zeros(k)
        x0[0] = 1.0
        lo = -_SCALE_CAP if k == 2 else 0.0
        bounds = [(lo, _SCALE_CAP)] + [(None, None)] * (k - 1)
        res = minimize(
            fun_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options=dict(maxiter=_CALIB_MAX_ITER, gtol=0.1 * _CALIB_TOL, ftol=0.0),
        )
        if not (np.isfinite(res.fun) and np.isfinite(res.jac).all()):
            raise OptimizationError(
                f"calibration failed: L-BFGS-B stopped after {res.nit} iterations "
                f"({res.message}) with a loss or gradient that is not finite",
                grad_norm=float(np.abs(res.jac).max()),
            )
        s = float(res.x[0])
        # Perfect separation sends the slope to infinity; the bounds already
        # cap it at 1e3, and a (near-)zero refit loss flags the pathology.
        if res.fun < 1e-6 or abs(s) >= _SCALE_CAP * (1.0 - 1e-9):
            warnings.warn(
                "calibration data is (near-)separable; the fitted scale is not stable",
                RuntimeWarning,
                stacklevel=2,
            )
        c = np.concatenate([res.x[1:], [0.0]])
        return replace(model, calib_c=c - c.mean(), calib_scale=s)


def _calibrated_scores(model: LogisticModel, x) -> np.ndarray:
    X = _phi_rows(model.feature_map, x, model.n_features)
    return model.calib_scale * (X @ model.beta) + model.calib_c


def predict(model: LogisticModel, x) -> tuple[int, np.ndarray]:
    """Label (1-based, ties to the smallest index) and class probabilities."""
    scores = _calibrated_scores(model, np.asarray(x)[None])
    probs = _softmax(scores)[0][0]  # the one row's softmax
    return int(np.argmax(scores)) + 1, probs / probs.sum()


def predict_labels(model: LogisticModel, examples: Examples) -> np.ndarray:
    """Labels (1-based) of a batch of examples; none for an empty one."""
    batch = as_example_batch(examples)
    if len(batch) == 0:
        return np.zeros(0, dtype=np.intp)
    return np.argmax(_calibrated_scores(model, batch.x), axis=1) + 1


def mean_log_loss(model: LogisticModel, examples: Examples) -> float:
    """Mean calibrated log-loss on examples (used to audit calibration);
    an empty batch has none and raises :class:`DegenerateDataError`."""
    batch = as_example_batch(examples)
    if len(batch) == 0:
        raise DegenerateDataError("no examples")
    _check_labels(batch.y, model.n_classes)
    return float(_softmax_loss(_calibrated_scores(model, batch.x), batch.y)[0].mean())


# --------------------------------------------------------------------------
# Serialization: a versioned, self-describing text document.  Floats are
# written with repr (shortest round-trip), so load(save(m)) is bit-exact.
# --------------------------------------------------------------------------

_MODEL_MAGIC = "levyaug-model v1"


def _write_floats(out, values):
    out.write(" ".join(repr(float(v)) for v in values) + "\n")


def save_model(model: LogisticModel, path, family: LevyFamily | None = None) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(_MODEL_MAGIC + "\n")
        if family is None:
            out.write("family none\n")
        else:
            out.write(f"family {family.kind.value} {family.d}\n")
            if family.kind is FamilyKind.GAUSSIAN:
                out.write(f"sigma {family.d}\n")
                for row in family.sigma:
                    _write_floats(out, row)
        out.write(f"feature_map {model.feature_map.value}\n")
        p, k = model.beta.shape
        out.write(f"beta {p} {k}\n")
        for row in model.beta:
            _write_floats(out, row)
        out.write("calib_c\n")
        _write_floats(out, model.calib_c)
        out.write(f"calib_scale {model.calib_scale!r}\n")


def load_model(path) -> tuple[LogisticModel, LevyFamily | None]:
    """The model and family :func:`save_model` wrote.  A document that does
    not parse, down to one bad token or a line after ``calib_scale``,
    raises :class:`DataFormatError`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = [ln.rstrip("\n") for ln in handle]
        except UnicodeDecodeError:
            raise DataFormatError("file is not UTF-8 text") from None
    it = iter(lines)

    def next_line():
        try:
            return next(it)
        except StopIteration:
            raise DataFormatError("model file truncated") from None

    def section(header):
        """The tokens after ``header`` on the next line, which must start with it."""
        tokens = next_line().split()
        if tokens[:1] != [header]:
            raise DataFormatError(f"expected {header} line")
        return tokens[1:]

    if next_line() != _MODEL_MAGIC:
        raise DataFormatError(f"not a {_MODEL_MAGIC!r} document")
    try:
        family: LevyFamily | None = None
        tokens = section("family")
        if tokens[0] != "none":
            kind = FamilyKind(tokens[0])
            d = int(tokens[1])
            sigma = None
            if kind is FamilyKind.GAUSSIAN:
                section("sigma")
                sigma = np.array(
                    [[float(v) for v in next_line().split()] for _ in range(d)]
                )
            family = LevyFamily(kind, d, sigma)
        feature_map = FeatureMap(section("feature_map")[0])
        p, k = (int(v) for v in section("beta"))
        beta = np.array([[float(v) for v in next_line().split()] for _ in range(p)])
        if beta.shape != (p, k):
            raise DataFormatError("beta block has wrong shape")
        section("calib_c")
        calib_c = np.array([float(v) for v in next_line().split()])
        if len(calib_c) != k:
            raise DataFormatError("calib_c line must have one entry per class")
        calib_scale = float(section("calib_scale")[0])
    except LevyAugError:
        raise
    except (ValueError, IndexError) as exc:  # a missing or unparsable token
        raise DataFormatError(f"malformed model file: {exc}") from None
    if next(it, None) is not None:
        raise DataFormatError("model file continues after calib_scale")
    model = LogisticModel(
        beta=beta, calib_c=calib_c, calib_scale=calib_scale, feature_map=feature_map
    )
    return model, family
