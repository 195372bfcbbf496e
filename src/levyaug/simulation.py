"""Synthetic benchmark designs and the (n, alpha) sweep runner.

Two hierarchical designs are built in, each a spec whose fields are the
parameters of its data (its name and default figure, ``n_grid`` and
``replicates``, are class constants):

* ``GaussianSimSpec`` - labels are fair coin flips; each class owns 10
  random atoms whose first 20 of 100 coordinates are 1.1 times Student-t
  draws with 4 degrees of freedom (the rest are zero); an observation is
  its atom plus unit Gaussian noise, i.e. the unit-time slice of a
  Brownian family with identity covariance.
* ``PoissonSimSpec`` - 500 count coordinates with 1000 expected total
  counts.  Class 1 elevates coordinates 1-7 (theta = 1); class 2 elevates
  coordinates 8-14 by a per-example random level tau ~ Exp(rate=3).
  Rates are normalized to sum to one, so the recorded information content
  (1000) equals the expected total count and every topic carries equal
  information.

``run_alpha_sweep`` owns the run (sizes, replicates, seed) and walks the
(n, alpha, replicate) grid: generate data, thin, fit with grouped
cross-validation, recalibrate on the originals and score on a fresh test
set.  alpha = 0 dispatches to the analytic strong-thinning fit and
alpha = 1 trains on the originals themselves.  Every cell draws from
substreams keyed by (n, replicate[, alpha]), so the same (spec, seed)
always reproduces the same rows, data is shared across alphas within a
replicate (paired comparisons), and cells can run in a process pool
without changing the output.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np

from ._blas import load_scipy
from .errors import LevyAugError, ParameterError
from .families import (
    ExampleBatch,
    LevyFamily,
    PseudoBatch,
    _compact_counts,
    gaussian_family,
    poisson_family,
)
from .logistic import (
    TrainConfig,
    calibrate,
    center_columns,
    fit_logistic_detailed,
    mean_log_loss,
    predict_labels,
)
from .rng import RngState
from .strong_thinning import fit_strong_thinning
from .thinning import ThinningConfig, generate_pseudo_examples

__all__ = [
    "GaussianSimSpec",
    "PoissonSimSpec",
    "SweepRow",
    "SweepResult",
    "gen_gaussian_sim",
    "gen_poisson_sim",
    "run_alpha_sweep",
    "write_sweep_csv",
    "render_sweep_svg",
]

_TEST_CAP = 10000
_DATA_TAG = 1
_THIN_TAG = 2
_STRONG_RIDGE = 1e-6


@dataclass(frozen=True)
class GaussianSimSpec:
    spec_id: ClassVar[str] = "gauss"
    n_grid: ClassVar[tuple[int, ...]] = (30, 50, 75, 100, 150, 200, 400, 600)
    replicates: ClassVar[int] = 20
    d: int = 100
    n_signal: int = 20
    atoms_per_class: int = 10
    atom_scale: float = 1.1
    t_dof: float = 4.0

    def family(self) -> LevyFamily:
        return gaussian_family(self.d)


@dataclass(frozen=True)
class PoissonSimSpec:
    spec_id: ClassVar[str] = "poisson"
    n_grid: ClassVar[tuple[int, ...]] = (30, 50, 100, 150, 200, 400, 800, 1600)
    replicates: ClassVar[int] = 20
    d: int = 500
    total_rate: float = 1000.0
    n_signal: int = 7
    signal_level: float = 1.0
    tau_rate: float = 3.0

    def family(self) -> LevyFamily:
        return poisson_family(self.d)


def _draw_atoms(spec: GaussianSimSpec, rng: np.random.Generator) -> np.ndarray:
    """Class atoms, shape (2, atoms_per_class, d); only the first
    ``n_signal`` coordinates are nonzero."""
    atoms = np.zeros((2, spec.atoms_per_class, spec.d))
    atoms[:, :, : spec.n_signal] = spec.atom_scale * rng.standard_t(
        spec.t_dof, size=(2, spec.atoms_per_class, spec.n_signal)
    )
    return atoms


def gen_gaussian_sim(
    spec: GaussianSimSpec, n: int, rng: np.random.Generator
) -> tuple[ExampleBatch, ExampleBatch]:
    """Draw a train set of size n and a test set of size min(10 n, 10000).

    Class atoms are redrawn per call, so different replicates see
    different conditional laws of the mean given the label.
    """
    if n < 2:
        raise ParameterError("need at least 2 training examples")
    atoms = _draw_atoms(spec, rng)

    def draw(m: int) -> ExampleBatch:
        ys = rng.integers(0, 2, size=m)
        which = rng.integers(0, spec.atoms_per_class, size=m)
        noise = rng.standard_normal((m, spec.d))
        return ExampleBatch(x=atoms[ys, which] + noise, y=ys + 1, t=1.0)

    return draw(n), draw(min(10 * n, _TEST_CAP))


def gen_poisson_sim(
    spec: PoissonSimSpec, n: int, rng: np.random.Generator
) -> tuple[ExampleBatch, ExampleBatch]:
    """Draw Poisson count data; the recorded information content is the
    expected total count (rates are normalized per example).  The counts
    of each set are stored in the smallest integer type that holds them
    (see :func:`levyaug.families.check_example`): the rows are drawn into a
    ``uint8`` buffer, which widens only when a row's largest count needs it."""
    if n < 2:
        raise ParameterError("need at least 2 training examples")
    s = spec.n_signal

    def draw(m: int) -> ExampleBatch:
        ys = rng.integers(0, 2, size=m)
        x = np.empty((m, spec.d), dtype=np.uint8)
        for i, y in enumerate(ys):
            theta = np.zeros(spec.d)
            if y == 0:
                theta[:s] = spec.signal_level
            else:  # fresh signal height per example
                theta[s : 2 * s] = rng.exponential(1.0 / spec.tau_rate)
            weights = np.exp(theta)
            rates = spec.total_rate * weights / weights.sum()
            counts = rng.poisson(rates)
            if counts.max(initial=0) > np.iinfo(x.dtype).max:
                x = x.astype(_compact_counts(counts).dtype)
            x[i] = counts
        return ExampleBatch(x=x, y=ys + 1, t=spec.total_rate)

    return draw(n), draw(min(10 * n, _TEST_CAP))


def _generate(spec, n: int, rng: np.random.Generator):
    if isinstance(spec, GaussianSimSpec):
        return gen_gaussian_sim(spec, n, rng)
    if isinstance(spec, PoissonSimSpec):
        return gen_poisson_sim(spec, n, rng)
    raise ParameterError(f"unknown simulation spec {type(spec).__name__}")


@dataclass(frozen=True)
class SweepRow:
    spec_id: str
    n: int
    alpha: float
    replicate: int
    test_error: float  # NaN marks a failed cell
    ridge_lambda: float
    wall_ms: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    spec: GaussianSimSpec | PoissonSimSpec
    seed: int
    alphas: tuple[float, ...]
    n_grid: tuple[int, ...]
    replicates: int
    n_pseudo: int
    failures: tuple[str, ...] = ()

    def manifest(self) -> dict:
        return {
            "format": "levyaug-sweep-manifest v1",
            "spec": {"type": type(self.spec).__name__, **asdict(self.spec)},
            "seed": self.seed,
            "alphas": list(self.alphas),
            "n_grid": list(self.n_grid),
            "replicates": self.replicates,
            "n_pseudo": self.n_pseudo,
            "failures": list(self.failures),
        }

    def mean_errors(self) -> dict[tuple[int, float], float]:
        """Mean test error per (n, alpha), sorted, over the cells that did not fail."""
        errors: dict[tuple[int, float], list[float]] = {}
        for r in self.rows:
            if not np.isnan(r.test_error):
                errors.setdefault((r.n, r.alpha), []).append(r.test_error)
        return {key: float(np.mean(errs)) for key, errs in sorted(errors.items())}


def _alpha_key(alpha: float) -> int:
    return int(round(alpha * 10**9))


def _standardized_fit(pseudo: PseudoBatch, train_cfg):
    """Fit the way off-the-shelf ridge solvers do by default: scale the
    pseudo-feature columns to unit variance, fit, and fold the scaling
    back into the coefficients."""
    sd = np.std(pseudo.x_tilde, axis=0, ddof=1, dtype=float)
    sd[sd == 0.0] = 1.0
    model, report = fit_logistic_detailed(replace(pseudo, x_tilde=pseudo.x_tilde / sd), train_cfg)
    return replace(model, beta=center_columns(model.beta / sd[:, None])), report


def _fit_cell(family, train, alpha, n_pseudo, thin_seed, train_cfg, standardize):
    """Fit + calibrate one cell; returns (model, lambda used)."""
    if alpha == 0.0:
        model = fit_strong_thinning(train, family, ridge_lambda=_STRONG_RIDGE)
        lam = _STRONG_RIDGE
    else:
        cfg = ThinningConfig(
            alpha=alpha, n_pseudo=1 if alpha == 1.0 else n_pseudo, seed=thin_seed
        )
        pseudo = generate_pseudo_examples(train, cfg, family)
        if standardize:
            model, report = _standardized_fit(pseudo, train_cfg)
        else:
            model, report = fit_logistic_detailed(pseudo, train_cfg)
        lam = report.chosen_lambda
    raw_loss = mean_log_loss(model, train)
    model = calibrate(model, train)
    calibrated_loss = mean_log_loss(model, train)
    # The calibration family contains the identity, so refitting it can
    # only improve the training log-loss.
    assert calibrated_loss <= raw_loss + 1e-9
    return model, lam


def _run_cell(args):
    (spec, n, alpha, replicate, seed, n_pseudo, train_cfg, standardize) = args
    base = RngState(seed)
    start = time.perf_counter()
    try:
        data_rng = base.spawn(_DATA_TAG, n, replicate)
        train, test = _generate(spec, n, data_rng)
        family = spec.family()
        thin_seed = base.substate(_THIN_TAG, n, replicate, _alpha_key(alpha))
        model, lam = _fit_cell(family, train, alpha, n_pseudo, thin_seed, train_cfg, standardize)
        err = float((predict_labels(model, test) != test.y).mean())
        failure = None
    except LevyAugError as exc:
        err, lam = float("nan"), float("nan")
        failure = f"{spec.spec_id} n={n} alpha={alpha} rep={replicate}: {exc}"
    wall_ms = (time.perf_counter() - start) * 1e3
    row = SweepRow(
        spec_id=spec.spec_id,
        n=n,
        alpha=alpha,
        replicate=replicate,
        test_error=err,
        ridge_lambda=lam,
        wall_ms=wall_ms,
    )
    return row, failure


def run_alpha_sweep(
    spec,
    alphas,
    n_grid=None,
    n_pseudo: int = 32,
    replicates: int | None = None,
    seed: int = 0,
    train_cfg: TrainConfig | None = None,
    standardize: bool = False,
    jobs: int = 1,
) -> SweepResult:
    """Run the full (n, alpha, replicate) grid and collect error rows.

    ``n_grid`` and ``replicates`` default to ``spec``'s figure.  alphas
    may include the endpoints: 0 uses the analytic strong-thinning
    fit (ridge 1e-6), 1 trains on the originals; both still go through
    calibration.
    ``standardize=True`` scales the pseudo-feature columns to unit
    variance before the ridge fit (as off-the-shelf ridge solvers do by
    default) and folds the scaling back into the coefficients; the
    default fits the raw features.
    A failed cell is kept as a NaN row (and its message is recorded in
    the result), never dropped.  A sweep with no cells (an empty grid or
    fewer than one replicate), n_pseudo or jobs below 1, or a training
    size below 2 raises :class:`ParameterError` before any cell runs.  With
    ``jobs > 1`` cells run in a process pool of at most one worker per
    cell; output is independent of the schedule.  Each fit runs on one
    BLAS thread, so the pool is the only parallelism.  scipy is loaded
    once, before the first cell and before the pool forks, so that no
    cell's wall time and no worker pays for its import.
    """
    n_grid = tuple(spec.n_grid if n_grid is None else n_grid)
    replicates = spec.replicates if replicates is None else replicates
    train_cfg = TrainConfig() if train_cfg is None else train_cfg
    alphas = tuple(float(a) for a in alphas)
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {a}")
    if n_pseudo < 1 or jobs < 1:
        raise ParameterError(f"n_pseudo and jobs must be >= 1, got {n_pseudo} and {jobs}")
    if any(n < 2 for n in n_grid):
        raise ParameterError(f"every training size must be >= 2, got n grid {list(n_grid)}")

    cells = [
        (spec, n, alpha, rep, seed, n_pseudo, train_cfg, standardize)
        for n in n_grid
        for alpha in alphas
        for rep in range(replicates)
    ]
    if not cells:
        raise ParameterError(
            f"the sweep has no cells: {len(n_grid)} sizes x {len(alphas)} alphas x "
            f"{replicates} replicates"
        )
    jobs = min(jobs, len(cells))
    load_scipy()
    if jobs > 1:
        # Imported here, so that only a pooled sweep loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_cell, cells, chunksize=1))
    else:
        outcomes = [_run_cell(c) for c in cells]
    rows = tuple(row for row, _ in outcomes)
    failures = tuple(msg for _, msg in outcomes if msg is not None)
    return SweepResult(
        rows=rows,
        spec=spec,
        seed=seed,
        alphas=alphas,
        n_grid=n_grid,
        replicates=replicates,
        n_pseudo=n_pseudo,
        failures=failures,
    )


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------

_CSV_HEADER = "spec,n,alpha,replicate,test_error,lambda,wall_ms"


def write_sweep_csv(result: SweepResult, path, timing: str = "measured") -> None:
    """Write rows under the fixed header.

    ``timing="zero"`` blanks the wall-time column to 0 so repeated runs
    with one seed are byte-identical; measured timings stay available on
    the in-memory rows (re-running can never reproduce them exactly).
    """
    if timing not in ("measured", "zero"):
        raise ParameterError(f"unknown timing mode {timing!r}")
    with open(path, "w", encoding="utf-8") as out:
        out.write(_CSV_HEADER + "\n")
        for r in result.rows:
            wall = int(round(r.wall_ms)) if timing == "measured" else 0
            out.write(
                f"{r.spec_id},{r.n},{r.alpha!r},{r.replicate},"
                f"{float(r.test_error)!r},{float(r.ridge_lambda)!r},{wall}\n"
            )


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = (
    "#1b6ca8", "#c0392b", "#27ae60", "#8e44ad",
    "#e67e22", "#16a085", "#7f8c8d", "#2c3e50",
)


def render_sweep_svg(result: SweepResult, path) -> None:
    """Mean test error against alpha, one polyline per training size.

    Deliberately minimal (no plotting dependency): a fixed 640x420 canvas
    and margins, linear axes, a legend keyed by n.  NaN cells are skipped.
    """
    series: dict[int, list[tuple[float, float]]] = {}
    for (n, alpha), err in result.mean_errors().items():
        series.setdefault(n, []).append((alpha, err))
    errors = [e for pts in series.values() for _, e in pts]
    y_hi = max(errors, default=0.0) * 1.08 or 1.0  # an all-zero axis still has a span
    y_lo = 0.0
    width, height, mx, my = 640, 420, 56, 36

    def sx(a: float) -> float:
        return mx + a * (width - 2 * mx)

    def sy(e: float) -> float:
        return height - my - (e - y_lo) / (y_hi - y_lo) * (height - 2 * my)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{mx}" y1="{height-my}" x2="{width-mx}" y2="{height-my}" stroke="black"/>',
        f'<line x1="{mx}" y1="{my}" x2="{mx}" y2="{height-my}" stroke="black"/>',
        f'<text x="{width/2:.1f}" y="{height-8}" text-anchor="middle">thinning fraction alpha</text>',
        f'<text x="14" y="{height/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height/2:.1f})">test error</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{sx(frac):.1f}" y="{height-my+14}" text-anchor="middle">{frac:g}</text>'
        )
        val = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{mx-6}" y="{sy(val)+4:.1f}" text-anchor="end">{val:.2f}</text>'
        )
    for i, (n, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(a):.2f},{sy(e):.2f}" for a, e in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for a, e in pts:
            parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(e):.2f}" r="2.4" fill="{color}"/>')
        ly = my + 14 * i
        parts.append(
            f'<line x1="{width-mx-86}" y1="{ly}" x2="{width-mx-66}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{width-mx-60}" y="{ly+4}">{_svg_escape(f"n={n}")}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as out:
        out.write("\n".join(parts) + "\n")
