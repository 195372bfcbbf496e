"""Correctness checks that compute the answer apart from the program.

Each check takes plain arrays or parsed rows, returns a list of problem
strings (empty when the output is right), and uses numpy only: nothing here
calls into ``levyaug``.  The benchmark's tests feed each check a wrong
answer to show that it is rejected.
"""

from __future__ import annotations

import math

import numpy as np

# TrainConfig's default gradient tolerance; the CLI does not expose it.
FIT_TOL = 1e-7
# The sweep's strong-thinning ridge when the CLI does not pass one.
STRONG_RIDGE = 1e-6


# --------------------------------------------------------------------------
# Sweep CSVs
# --------------------------------------------------------------------------

def read_sweep_csv(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        rows = []
        for line in handle:
            rec = dict(zip(header, line.strip().split(",")))
            rows.append(
                {
                    "n": int(rec["n"]),
                    "alpha": float(rec["alpha"]),
                    "replicate": int(rec["replicate"]),
                    "test_error": float(rec["test_error"]),
                    "lambda": float(rec["lambda"]),
                    "wall_ms": float(rec["wall_ms"]),
                }
            )
    return rows


def check_sweep_rows(rows, n_grid, alphas, replicates, lambda_grid=None) -> list[str]:
    """Every cell present once, none failed (NaN), each lambda in its grid
    (the explicit grid for alpha > 0 when one is given, the strong-thinning
    ridge at alpha = 0), and mean test error per alpha below a coin flip."""
    problems = []
    want = {(n, float(a), r) for n in n_grid for a in alphas for r in range(replicates)}
    got = [(row["n"], row["alpha"], row["replicate"]) for row in rows]
    if len(got) != len(set(got)) or set(got) != want:
        problems.append(f"sweep cells {sorted(set(got) ^ want)} missing or extra")
    for row in rows:
        cell = (row["n"], row["alpha"], row["replicate"])
        if math.isnan(row["test_error"]) or math.isnan(row["lambda"]):
            problems.append(f"cell {cell} failed")
        elif row["alpha"] == 0.0:
            if row["lambda"] != STRONG_RIDGE:
                problems.append(f"cell {cell}: lambda {row['lambda']} is not {STRONG_RIDGE}")
        elif lambda_grid is not None and row["lambda"] not in lambda_grid:
            problems.append(f"cell {cell}: lambda {row['lambda']} not in the grid")
        elif not (row["lambda"] > 0.0 and math.isfinite(row["lambda"])):
            problems.append(f"cell {cell}: lambda {row['lambda']} is not positive")
    for a in alphas:
        errs = [row["test_error"] for row in rows if row["alpha"] == float(a)]
        if errs and not np.mean(errs) < 0.5:
            problems.append(f"mean test error {np.mean(errs):.3f} at alpha={a} is not below 0.5")
    return problems


def check_same_rows(rows_a, rows_b) -> list[str]:
    """Rows of two runs of one sweep agree on everything but ``wall_ms``."""
    def key(rows):
        return sorted(
            (r["n"], r["alpha"], r["replicate"], r["test_error"], r["lambda"]) for r in rows
        )

    if key(rows_a) != key(rows_b):
        return ["sweep rows differ between two runs of one sweep"]
    return []


def default_lambda_grid(X: np.ndarray, y: np.ndarray, n_values=50, span=1e-4) -> np.ndarray:
    """The documented default grid: log-spaced over a 1e4 range below the
    max-norm of the unpenalized mean-loss gradient at beta = 0."""
    k = int(y.max())
    resid = np.full((len(y), k), 1.0 / k)
    resid[np.arange(len(y)), y - 1] -= 1.0
    lam_max = float(np.abs(X.T @ resid / len(y)).max()) or 1.0
    return np.geomspace(lam_max, lam_max * span, n_values)


def check_lambda_choice(chosen, grid_used, expected_grid) -> list[str]:
    """The fit searched the expected grid and chose one of its values."""
    if len(grid_used) != len(expected_grid) or not np.allclose(
        grid_used, expected_grid, rtol=1e-12, atol=0.0
    ):
        return ["the fit searched another lambda grid than the expected one"]
    if chosen not in grid_used:
        return [f"chosen lambda {chosen} is not in its grid"]
    return []


# --------------------------------------------------------------------------
# alpha = 0 closed forms
# --------------------------------------------------------------------------

def _centred(m: np.ndarray) -> np.ndarray:
    return m - m.mean(axis=1, keepdims=True)


def gaussian_limit_closed_form(X, y, t, k, lam) -> np.ndarray:
    """Identity covariance: centred class sums divided by t_total/K + lambda."""
    sums = np.zeros((X.shape[1], k))
    np.add.at(sums.T, y - 1, X)
    return _centred(sums) / (float(np.sum(t)) / k + lam)


def check_gaussian_limit(beta, X, y, t, lam) -> list[str]:
    k = beta.shape[1]
    ref = gaussian_limit_closed_form(X, y, t, k, lam)
    # The fitted objective is divided by n, and its Hessian along the
    # centred directions is (t_total/K + lambda)/n per coordinate pair.
    bound = 10.0 * FIT_TOL * len(y) / (float(np.sum(t)) / k + lam)
    err = float(np.abs(beta - ref).max())
    if err > bound:
        return [f"Gaussian alpha=0 fit is {err:.2e} from its closed form (bound {bound:.1e})"]
    return []


def check_poisson_limit(beta, X, y, lam) -> list[str]:
    """On words counted in every class, the fit is the centred log class
    counts; the bound per word is the fit tolerance over that word's
    curvature."""
    k = beta.shape[1]
    counts = np.zeros((X.shape[1], k))
    np.add.at(counts.T, y - 1, X)
    seen = np.all(counts > 0, axis=1)
    if not seen.any():
        return ["no word is counted in every class"]
    c = counts[seen]
    ref = _centred(np.log(c))
    totals = c.sum(axis=1, keepdims=True)
    share = c / totals
    curvature = (totals * share * (1.0 - share)).min(axis=1)
    scale = max(1.0, float(counts.sum()))
    bound = 10.0 * (FIT_TOL * scale + lam * np.abs(ref).max(axis=1)) / curvature
    err = np.abs(beta[seen] - ref).max(axis=1)
    worst = int(np.argmax(err / bound))
    if err[worst] > bound[worst]:
        return [
            f"Poisson alpha=0 fit is {err[worst]:.2e} from its closed form "
            f"on a word (bound {bound[worst]:.1e})"
        ]
    return []


# --------------------------------------------------------------------------
# Wishart files
# --------------------------------------------------------------------------

def unpack_upper(values: np.ndarray, d: int) -> np.ndarray:
    """Rows of packed upper triangles (row-major) -> stacked symmetric matrices."""
    iu = np.triu_indices(d)
    out = np.zeros((values.shape[0], d, d))
    out[:, iu[0], iu[1]] = values
    out[:, iu[1], iu[0]] = values
    return out


def read_table(path) -> np.ndarray:
    """The numeric rows of a levyaug dataset or pseudo file."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


def check_pseudo_file(origins_y, origins_t, origins_x, pseudo, alpha, n_pseudo) -> list[str]:
    """n*B rows, B per origin, each labelled as its origin, t scaled by alpha,
    0 < x_tilde < x in the Loewner order, and mean x^-1/2 x_tilde x^-1/2 at
    alpha*I within Monte-Carlo error.  ``pseudo`` holds the parsed rows
    (origin_id, alpha, y, t_tilde, packed matrix)."""
    n, d = origins_x.shape[0], origins_x.shape[1]
    problems = []
    if pseudo.shape[0] != n * n_pseudo:
        return [f"pseudo file has {pseudo.shape[0]} rows, expected {n * n_pseudo}"]
    origin = pseudo[:, 0].astype(np.int64)
    if not np.array_equal(np.bincount(origin, minlength=n), np.full(n, n_pseudo)):
        problems.append(f"origins do not each have {n_pseudo} copies")
        return problems
    if not np.array_equal(pseudo[:, 2].astype(np.int64), origins_y[origin]):
        problems.append("a pseudo-example is not labelled as its origin")
    if not np.all(pseudo[:, 1] == alpha):
        problems.append("alpha column differs from the requested alpha")
    if not np.allclose(pseudo[:, 3], alpha * origins_t[origin], rtol=1e-12, atol=0.0):
        problems.append("t_tilde is not alpha times the origin's t")
    xt = unpack_upper(pseudo[:, 4:], d)
    x = origins_x[origin]
    if np.linalg.eigvalsh(xt)[:, 0].min() <= 0.0:
        problems.append("a thinned matrix is not positive-definite")
    if np.linalg.eigvalsh(x - xt)[:, 0].min() <= 0.0:
        problems.append("a thinned matrix is not dominated by its origin")
    w, v = np.linalg.eigh(x)
    inv_root = np.einsum("nij,nj,nkj->nik", v, 1.0 / np.sqrt(w), v)
    m = inv_root @ xt @ inv_root
    gap = np.abs(m.mean(axis=0) - alpha * np.eye(d))
    se = m.std(axis=0, ddof=1) / np.sqrt(m.shape[0])
    if np.any(gap > 5.0 * se):
        problems.append(
            f"mean of x^-1/2 x_tilde x^-1/2 is {gap.max():.2e} from alpha*I, "
            "more than 5 standard errors"
        )
    return problems


def penalized_gradient(beta, X, y, lam) -> np.ndarray:
    """Gradient of mean multiclass log-loss + lam/2 ||beta||^2."""
    scores = X @ beta
    scores -= scores.max(axis=1, keepdims=True)
    p = np.exp(scores)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(y)), y - 1] -= 1.0
    return X.T @ p / len(y) + lam * beta


def check_gradient(beta, X, y, lam, tol=FIT_TOL) -> list[str]:
    g = float(np.abs(penalized_gradient(beta, X, y, lam)).max())
    if not g <= tol:
        return [f"penalized-loss gradient max-norm {g:.2e} exceeds the fit tolerance {tol:.0e}"]
    return []


def check_heldout_error(err: float) -> list[str]:
    if not err < 0.5:
        return [f"held-out error {err:.3f} is not below chance"]
    return []


def read_model(path) -> tuple[np.ndarray, np.ndarray, float]:
    """(beta, calib_c, calib_scale) from a ``levyaug-model v1`` file."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if lines[0] != "levyaug-model v1":
        raise ValueError(f"{path} is not a levyaug-model v1 file")
    at = next(i for i, ln in enumerate(lines) if ln.startswith("beta "))
    p = int(lines[at].split()[1])
    beta = np.array([[float(v) for v in ln.split()] for ln in lines[at + 1 : at + 1 + p]])
    at = lines.index("calib_c", at)
    calib_c = np.array([float(v) for v in lines[at + 1].split()])
    scale = float(lines[at + 2].split()[1])
    return beta, calib_c, scale
