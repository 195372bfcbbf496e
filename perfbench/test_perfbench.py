"""Tests of the benchmark itself: a smoke size of every workload, and each
independent check shown to reject a wrong answer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from levyaug import (  # noqa: E402
    Example,
    RngState,
    ThinningConfig,
    TrainConfig,
    fit_logistic_detailed,
    fit_strong_thinning,
    gaussian_family,
    generate_pseudo_examples,
    poisson_family,
    save_model,
    wishart_family,
)
from levyaug.dataio import pack_symmetric  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 5) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


# The counts that must repeat exactly between two traced runs of one seed.
COUNTS = ("simulation.cells", "thinning.draws", "rng.spawns", "logistic.solves",
          "logistic.nit", "logistic.nfev", "dataio.pseudo_bytes")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_counts_repeat(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["logistic.solves"]["value"] > 0


def test_missing_program_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wishart-file", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# --------------------------------------------------------------------------
# Each check rejects a wrong answer
# --------------------------------------------------------------------------

def _rows():
    return [
        {"n": 30, "alpha": a, "replicate": r, "test_error": 0.3, "wall_ms": 5.0,
         "lambda": checks.STRONG_RIDGE if a == 0.0 else 0.1}
        for a in (0.0, 1.0) for r in range(2)
    ]


def test_sweep_rows_checks():
    assert checks.check_sweep_rows(_rows(), [30], (0.0, 1.0), 2, {0.1, 0.01}) == []
    assert checks.check_sweep_rows(_rows()[1:], [30], (0.0, 1.0), 2)
    failed = _rows()
    failed[3]["test_error"] = float("nan")
    assert checks.check_sweep_rows(failed, [30], (0.0, 1.0), 2)
    off_grid = _rows()
    off_grid[2]["lambda"] = 0.05
    assert checks.check_sweep_rows(off_grid, [30], (0.0, 1.0), 2, {0.1, 0.01})
    coin = _rows()
    for row in coin[2:]:
        row["test_error"] = 0.5
    assert checks.check_sweep_rows(coin, [30], (0.0, 1.0), 2)


def test_same_rows_ignores_wall_time_only():
    other = _rows()
    other[0]["wall_ms"] = 99.0
    assert checks.check_same_rows(_rows(), other) == []
    other[1]["test_error"] = 0.31
    assert checks.check_same_rows(_rows(), other)


def test_lambda_choice_checks():
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((40, 3)), np.repeat([1, 2], 20)
    grid = checks.default_lambda_grid(X, y)
    assert checks.check_lambda_choice(grid[7], tuple(grid), grid) == []
    assert checks.check_lambda_choice(grid[7] * 1.01, tuple(grid), grid)
    assert checks.check_lambda_choice(grid[7], tuple(grid[:-1]), grid)


def test_gaussian_closed_form_check():
    rng = np.random.default_rng(1)
    y = np.repeat([1, 2], 15)
    X = rng.standard_normal((30, 6)) + (y == 2)[:, None]
    examples = [Example(x=x, y=int(label), t=1.0) for x, label in zip(X, y)]
    beta = fit_strong_thinning(examples, gaussian_family(6), ridge_lambda=1e-6).beta
    t = np.ones(30)
    assert checks.check_gaussian_limit(beta, X, y, t, 1e-6) == []
    wrong = beta.copy()
    wrong[2] += [1e-3, -1e-3]
    assert checks.check_gaussian_limit(wrong, X, y, t, 1e-6)


def test_poisson_closed_form_check():
    rng = np.random.default_rng(2)
    y = np.repeat([1, 2], 20)
    X = rng.poisson(np.where((y == 1)[:, None], [5, 1, 3, 0.01], [1, 5, 3, 0.01]))
    examples = [Example(x=x, y=int(label), t=10.0) for x, label in zip(X, y)]
    beta = fit_strong_thinning(examples, poisson_family(4), ridge_lambda=1e-6).beta
    assert checks.check_poisson_limit(beta, X, y, 1e-6) == []
    wrong = beta.copy()
    wrong[0] += [0.05, -0.05]
    assert checks.check_poisson_limit(wrong, X, y, 1e-6)


def _wishart(n=30, d=3, t=12.0, alpha=0.5, n_pseudo=20):
    rng = np.random.default_rng(3)
    z = rng.standard_normal((n, int(t), d))
    x = np.einsum("mti,mtj->mij", z, z)
    y = np.repeat([1, 2], n // 2)
    examples = [Example(x=m, y=int(label), t=t) for m, label in zip(x, y)]
    cfg = ThinningConfig(alpha=alpha, n_pseudo=n_pseudo, seed=RngState(4))
    pseudo = generate_pseudo_examples(examples, cfg, wishart_family(d))
    rows = np.array([[pe.origin_id, pe.alpha, pe.y, pe.t_tilde, *pack_symmetric(pe.x_tilde)]
                     for pe in pseudo])
    return y, np.full(n, t), x, rows, pseudo


def test_pseudo_file_check_rejects_each_fault():
    y, t, x, rows, _ = _wishart()
    assert checks.check_pseudo_file(y, t, x, rows, 0.5, 20) == []
    assert checks.check_pseudo_file(y, t, x, rows[:-1], 0.5, 20)
    relabelled = rows.copy()
    relabelled[0, 2] = 3 - relabelled[0, 2]
    assert checks.check_pseudo_file(y, t, x, relabelled, 0.5, 20)
    undominated = rows.copy()
    undominated[0, 4:] = 1.01 * pack_symmetric(x[int(rows[0, 0])])
    assert checks.check_pseudo_file(y, t, x, undominated, 0.5, 20)
    # Draws at alpha = 0.5 claimed as alpha = 0.6: the mean is off alpha*I.
    relabelled_alpha = rows.copy()
    relabelled_alpha[:, 1], relabelled_alpha[:, 3] = 0.6, 0.6 * t[0]
    assert checks.check_pseudo_file(y, t, x, relabelled_alpha, 0.6, 20)


def test_gradient_and_model_checks(tmp_path):
    y, _, _, rows, pseudo = _wishart()
    model, report = fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=0.01))
    save_model(model, tmp_path / "model.txt", wishart_family(3))
    beta, calib_c, scale = checks.read_model(tmp_path / "model.txt")
    assert np.array_equal(beta, model.beta) and scale == 1.0 and calib_c.shape == (2,)
    features = checks.unpack_upper(rows[:, 4:], 3).reshape(len(rows), -1)
    labels = rows[:, 2].astype(np.int64)
    assert checks.check_gradient(beta, features, labels, 0.01) == []
    wrong = beta.copy()
    wrong[0] += [1e-4, -1e-4]
    assert checks.check_gradient(wrong, features, labels, 0.01)
    assert checks.check_gradient(beta, features, labels, 0.02)
    assert checks.check_heldout_error(0.2) == []
    assert checks.check_heldout_error(0.5)
