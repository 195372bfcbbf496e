"""End-to-end and per-layer benchmark of levyaug.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command the benchmark times
is a fresh ``python3 -m levyaug.cli`` process started with ``src`` on
PYTHONPATH and the environment's BLAS thread settings left as found.  Each
workload is closed-loop: one command at a time, so the only parallelism is
the program's own process pool.

``--trace 0`` runs whole rounds of the workload for about ``--seconds``
seconds (at least one) and reports the end-to-end metrics as medians over
rounds.  ``--trace 1`` runs round 0 once untraced and once under the tracer
(``traced.py``) and reports the per-layer metrics.  Either way the outputs
are checked against answers computed here, and the last line of standard
output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PY = sys.executable
DEADLINE_S = 170.0
SETUP_REPEATS = 5


class Bench:
    """Process runner and bookkeeping for one benchmark run."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def spawn(self, argv: list[str]) -> tuple[int, float, float]:
        """Run argv to its end; (exit code, wall seconds, peak RSS in MB of
        the largest process in its tree that it waited for)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -1, 0.0, 0.0
        with open(OUT / "stderr.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=log, stderr=log, start_new_session=True
            )
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def command(self, cli_args: list[str]) -> tuple[bool, float, float]:
        """One timed levyaug CLI command, counted as one operation."""
        code, wall, rss = self.spawn([PY, "-m", "levyaug.cli", *cli_args])
        return self._count(code, cli_args), wall, rss

    def traced(self, cli_args: list[str], tag: str) -> tuple[dict | None, float]:
        """One CLI command under the tracer, counted as one operation."""
        report_path = OUT / f"{tag}.trace.json"
        argv = [PY, str(HERE / "traced.py"), str(report_path), "--", *cli_args]
        code, wall, _ = self.spawn(argv)
        report = json.loads(report_path.read_text()) if code == 0 else None
        if report is not None:
            code = report["code"]
            self.problems += report["problems"]
        return (report if self._count(code, cli_args) else None), wall

    def _count(self, code: int, cli_args) -> bool:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"levyaug {cli_args[0]} exited with {code}", file=sys.stderr)
        return code == 0

    def check(self, problems: list[str]) -> None:
        self.problems += problems


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def rounds(bench: Bench, seconds: float, one_round) -> None:
    """Run whole rounds until the next one would end past ``seconds``."""
    start = time.monotonic()
    durations = []
    r = 0
    while True:
        t0 = time.monotonic()
        one_round(r)
        durations.append(time.monotonic() - t0)
        print(f"round {r}: {durations[-1]:.3f} s", file=sys.stderr)
        r += 1
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(durations) > seconds or bench.failed:
            return


def round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


# --------------------------------------------------------------------------
# Sweep workloads: gauss-sweep and poisson-sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    """One ``levyaug simulate`` per round, on the round's seed."""

    name: str
    spec: str
    alphas: tuple[float, ...]
    n: int
    n_pseudo: int
    replicates: int
    grid: tuple[float, ...] | None  # None: the CLI's default grid
    extra: tuple[str, ...]
    pool: bool  # the traced run also times the CLI's default --jobs pool

    def args(self, seed: int, out: Path, alphas=None, jobs: str | None = "1") -> list[str]:
        argv = [
            "simulate", "--spec", self.spec, "--out", str(out),
            "--alphas", ",".join(repr(a) for a in (alphas or self.alphas)),
            "--n-grid", str(self.n), "-B", str(self.n_pseudo),
            "--replicates", str(self.replicates), f"--seed={seed}", "--timing",
        ]
        if self.grid is not None:
            argv += ["--lambdas", ",".join(repr(v) for v in self.grid)]
        if jobs is not None:
            argv += ["--jobs", jobs]
        return argv + list(self.extra)

    def check_rows(self, bench: Bench, path: Path) -> list[dict]:
        rows = checks.read_sweep_csv(path)
        grid = None if self.grid is None else set(self.grid)
        bench.check(checks.check_sweep_rows(rows, [self.n], self.alphas, self.replicates, grid))
        return rows

    def end_to_end(self, bench: Bench, seed: int, seconds: float) -> dict:
        runs, rss = [], []

        def one_round(r):
            out = OUT / f"{self.name}-r{r}.csv"
            ok, wall, peak = bench.command(self.args(round_seed(seed, r), out))
            if ok:
                self.check_rows(bench, out)
                runs.append(wall)
                rss.append(peak)

        rounds(bench, seconds, one_round)
        if runs and not bench.failed:
            self.refit(bench, seed, OUT / f"{self.name}-r0.csv")
        return {"run_s": (_median(runs), "s"), "peak_rss_mb": (_median(rss), "MB")}

    def refit(self, bench: Bench, seed: int, timed_csv: Path) -> None:
        """Refit round 0 in one traced process, for the checks that need the
        fits in memory: the alpha = 0 closed forms always, and the default
        lambda grid when the sweep uses it (an explicit grid is checked from
        the CSV).  The refit rows must equal the timed run's."""
        alphas = self.alphas if self.grid is None else (0.0,)
        out = OUT / f"{self.name}-refit.csv"
        report, _ = bench.traced(self.args(round_seed(seed, 0), out, alphas), f"{self.name}-refit")
        if report is not None:
            timed = [row for row in checks.read_sweep_csv(timed_csv) if row["alpha"] in alphas]
            bench.check(checks.check_same_rows(timed, checks.read_sweep_csv(out)))

    def per_layer(self, bench: Bench, seed: int) -> dict:
        """Round 0 untraced and traced in one process each; with ``pool``,
        also untraced at the CLI's default --jobs, to time the pool."""
        s0 = round_seed(seed, 0)
        untraced, traced = OUT / f"{self.name}-untraced.csv", OUT / f"{self.name}-traced.csv"
        ok, untraced_s, _ = bench.command(self.args(s0, untraced))
        report, traced_s = bench.traced(self.args(s0, traced), self.name)
        pooled = OUT / f"{self.name}-pooled.csv"
        ok_pool = bench.command(self.args(s0, pooled, jobs=None))[0] if self.pool else ok
        metrics = dict.fromkeys(LAYER_UNITS, 0.0)
        if not (ok and ok_pool and report):
            return metrics
        rows_traced = self.check_rows(bench, traced)
        rows_busy = self.check_rows(bench, untraced)
        bench.check(checks.check_same_rows(rows_busy, rows_traced))
        if self.pool:
            rows_busy = self.check_rows(bench, pooled)
            bench.check(checks.check_same_rows(rows_busy, rows_traced))
        metrics.update(report["metrics"])
        busy = sum(r["wall_ms"] for r in rows_busy) / 1e3
        busy_serial = sum(r["wall_ms"] for r in rows_traced) / 1e3
        metrics["simulation.cells"] = len(rows_traced)
        metrics["simulation.cell_busy_s"] = busy
        metrics["simulation.cell_busy_serial_s"] = busy_serial
        metrics["simulation.pool_slowdown"] = busy / busy_serial
        metrics["trace.overhead_s"] = traced_s - untraced_s
        return metrics


# --------------------------------------------------------------------------
# wishart-file: generated dataset -> levyaug thin -> levyaug train
# --------------------------------------------------------------------------

class WishartFile:
    """Two classes of 5x5 scatter matrices with t = 20 degrees of freedom.
    Class 1 has identity scale; class 2 inflates two variances and
    correlates two coordinates, so both the diagonal and the off-diagonal
    entries carry signal."""

    name = "wishart-file"
    d, t, alpha, lambdas, folds = 5, 20, 0.5, "0.1,0.01,0.001,0.0001", 5

    def __init__(self, n: int, n_pseudo: int, n_test: int):
        self.n, self.n_pseudo, self.n_test = n, n_pseudo, n_test
        scale2 = np.diag([1.5, 1.25, 1.0, 1.0, 1.0])
        scale2[2, 3] = scale2[3, 2] = 0.4
        self.chol = [np.eye(self.d), np.linalg.cholesky(scale2)]

    def draw(self, rng: np.random.Generator, m: int):
        """m labelled scatter matrices: sums of t outer products of normals."""
        y = rng.integers(1, 3, size=m)
        z = rng.standard_normal((m, self.t, self.d))
        for k in (1, 2):
            z[y == k] = z[y == k] @ self.chol[k - 1].T
        return y, np.einsum("mti,mtj->mij", z, z)

    def write_dataset(self, path: Path, y, x) -> None:
        iu = np.triu_indices(self.d)
        names = ",".join(f"m_{j + 1}" for j in range(len(iu[0])))
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# levyaug-dataset v1 family=wishart d={self.d}\ny,t,{names}\n")
            for label, m in zip(y, x):
                values = ",".join(repr(float(v)) for v in m[iu])
                out.write(f"{label},{float(self.t)!r},{values}\n")

    def inputs(self, seed: int, r: int):
        """Round r's dataset file, plus a held-out draw for the model check."""
        key = seed % 2**64  # numpy seeds must be nonnegative
        y, x = self.draw(np.random.default_rng([key, r]), self.n)
        data = OUT / f"{self.name}-r{r}-data.csv"
        self.write_dataset(data, y, x)
        return data, (y, x, self.draw(np.random.default_rng([key, r, 1]), self.n_test))

    def commands(self, seed: int, r: int, data: Path, tag: str):
        pseudo, model = OUT / f"{self.name}-{tag}-pseudo.csv", OUT / f"{self.name}-{tag}-model.txt"
        thin = ["thin", "--input", str(data), "--output", str(pseudo), "--alpha",
                repr(self.alpha), "-B", str(self.n_pseudo), f"--seed={round_seed(seed, r)}"]
        train = ["train", "--pseudo", str(pseudo), "--originals", str(data), "--out",
                 str(model), "--ridge-lambda", self.lambdas, "--folds", str(self.folds)]
        return thin, train, pseudo, model

    def check_outputs(self, bench: Bench, truth, pseudo: Path, model: Path) -> None:
        y, x, (y_test, x_test) = truth
        rows = checks.read_table(pseudo)
        t = np.full(len(y), float(self.t))
        bench.check(checks.check_pseudo_file(y, t, x, rows, self.alpha, self.n_pseudo))
        beta, calib_c, scale = checks.read_model(model)
        manifest = json.loads(Path(str(model) + ".manifest.json").read_text())
        lam = manifest["config"]["chosen_lambda"]
        features = checks.unpack_upper(rows[:, 4:], self.d).reshape(len(rows), -1)
        bench.check(checks.check_gradient(beta, features, rows[:, 2].astype(np.int64), lam))
        scores = scale * (x_test.reshape(len(y_test), -1) @ beta) + calib_c
        bench.check(checks.check_heldout_error(float(np.mean(scores.argmax(1) + 1 != y_test))))

    def end_to_end(self, bench: Bench, seed: int, seconds: float) -> dict:
        runs, rss = [], []

        def one_round(r):
            data, truth = self.inputs(seed, r)
            thin, train, pseudo, model = self.commands(seed, r, data, f"r{r}")
            ok_thin, thin_s, rss_thin = bench.command(thin)
            if not ok_thin:
                return
            ok_train, train_s, rss_train = bench.command(train)
            if ok_train:
                self.check_outputs(bench, truth, pseudo, model)
                runs.append(thin_s + train_s)
                rss.append(max(rss_thin, rss_train))

        rounds(bench, seconds, one_round)
        return {"run_s": (_median(runs), "s"), "peak_rss_mb": (_median(rss), "MB")}

    def per_layer(self, bench: Bench, seed: int) -> dict:
        data, truth = self.inputs(seed, 0)
        thin, train, pseudo, model = self.commands(seed, 0, data, "untraced")
        ok_thin, thin_s, _ = bench.command(thin)
        ok_train, train_s, _ = bench.command(train)
        t_thin, t_train, t_pseudo, _ = self.commands(seed, 0, data, "traced")
        rep_thin, traced_thin_s = bench.traced(t_thin, f"{self.name}-thin")
        rep_train, traced_train_s = bench.traced(t_train, f"{self.name}-train")
        metrics = dict.fromkeys(LAYER_UNITS, 0.0)
        if not (ok_thin and ok_train and rep_thin and rep_train):
            return metrics
        self.check_outputs(bench, truth, pseudo, model)
        if pseudo.read_bytes() != t_pseudo.read_bytes():
            bench.check(["the traced thin wrote a different pseudo file"])
        for key in LAYER_UNITS:
            metrics[key] = rep_thin["metrics"].get(key, 0) + rep_train["metrics"].get(key, 0)
        metrics["cli.thin_s"] = thin_s
        metrics["cli.train_s"] = train_s
        metrics["trace.overhead_s"] = traced_thin_s + traced_train_s - thin_s - train_s
        return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Workloads, set-up time, run record
# --------------------------------------------------------------------------

POISSON_GRID = tuple(np.geomspace(3.0, 3e-4, 12).tolist())


def workload(name: str, smoke: bool):
    """The three workloads; ``smoke`` shrinks each to a few seconds."""
    if name == "gauss-sweep":
        # Acceptance 8a: n=30, alphas 0 and 1, B=16, standardized, default
        # 50-lambda grid, 5 folds.  Timed at --jobs 1: at the default --jobs
        # the forked pool oversubscribes BLAS and one round's wall time
        # swings 4-17 s, wider than any bound.  The traced run still times
        # the default pool (simulation.pool_slowdown).
        return Sweep("gauss-sweep", "gauss", (0.0, 1.0), 30, 16, 1 if smoke else 4,
                     None, ("--standardize",), pool=True)
    if name == "poisson-sweep":
        # Acceptance 8b: n=100, alphas 0, 0.1 and 1, B=32, the 12-value grid,
        # raw features, one replicate, one process.
        return Sweep("poisson-sweep", "poisson", (0.0, 0.1, 1.0), 30 if smoke else 100,
                     4 if smoke else 32, 1, POISSON_GRID, (), pool=False)
    return WishartFile(n=40 if smoke else 200, n_pseudo=4 if smoke else 16, n_test=2000)


WORKLOADS = ("gauss-sweep", "poisson-sweep", "wishart-file")


def setup_seconds(bench: Bench) -> float:
    """Median time for a fresh interpreter to import levyaug.cli, after
    one untimed import that compiles the bytecode."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        code, wall, _ = bench.spawn([PY, "-c", "import levyaug.cli"])
        if code != 0:
            raise SystemExit("levyaug.cli does not import")
        if i:
            times.append(wall)
    return statistics.median(times)


def run_record() -> dict:
    """What the figures depend on besides the code: cores, BLAS, versions,
    and which source was measured."""
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((ROOT / "src" / "levyaug").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            sha = git.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest,
        "src_lines": sum(p.read_text().count("\n") for p in sources),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levyaug" / "cli.py").is_file():
        print(f"no levyaug source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for stale in OUT.iterdir():
        stale.unlink()
    bench = Bench(time.monotonic() + DEADLINE_S)
    print("run " + json.dumps(run_record()), flush=True)
    work = workload(args.workload, args.smoke)
    if args.trace:
        values = work.per_layer(bench, args.seed)
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        setup_s = setup_seconds(bench)
        values = work.end_to_end(bench, args.seed, args.seconds)
        values["setup_s"] = (setup_s, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
