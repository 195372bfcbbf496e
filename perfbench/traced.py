"""Run one levyaug CLI command in this process with the tracer installed.

    python3 perfbench/traced.py REPORT.json -- <levyaug args>

Writes REPORT.json with the command's exit code, its wall time inside this
process, the per-layer metrics and the problems found by the checks that
need the program's in-memory values: every alpha = 0 fit against its closed
form, and every cross-validated lambda against its grid.  ``run.py`` starts
this script and compares its wall time with the untraced command's for
``trace.overhead_s``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def explicit_grid(cli_args: list[str]):
    """The lambda grid given on the command line, or None for the default."""
    for flag in ("--lambdas", "--ridge-lambda"):
        if flag in cli_args:
            text = cli_args[cli_args.index(flag) + 1]
            if text != "auto":
                return np.array(sorted((float(v) for v in text.split(",")), reverse=True))
    return None


def capture_problems(tracer: Tracer, grid) -> list[str]:
    problems = []
    for examples, family, lam, beta in tracer.limit_fits:
        X = np.stack([np.asarray(ex.x, dtype=float) for ex in examples])
        y = np.array([ex.y for ex in examples])
        if family.kind.value == "gaussian":
            if not np.array_equal(family.sigma, np.eye(family.d)):
                problems.append("Gaussian closed form assumes identity covariance")
                continue
            t = np.array([ex.t for ex in examples])
            problems += checks.check_gaussian_limit(beta, X, y, t, lam)
        else:
            problems += checks.check_poisson_limit(beta, X, y, lam)
    for chosen, grid_used, X, y in tracer.lambda_choices:
        expected = checks.default_lambda_grid(X, y) if grid is None else grid
        problems += checks.check_lambda_choice(chosen, grid_used, expected)
    return problems


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    report_path, cli_args = sys.argv[1], sys.argv[3:]

    from levyaug import cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = tracer.call("cli.main", cli.main, cli_args)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    report = {
        "code": code,
        "wall_s": wall,
        "metrics": tracer.layer_metrics(),
        "problems": capture_problems(tracer, explicit_grid(cli_args)),
    }
    with open(report_path, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
