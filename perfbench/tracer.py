"""In-memory spans and counters around levyaug's public functions.

``Tracer.install()`` replaces each traced function in the module namespace
where its caller looks it up (``levyaug.cli.read_dataset``,
``levyaug.simulation.fit_logistic_detailed`` and so on), plus scipy's
``minimize`` as ``levyaug.logistic`` and ``levyaug.strong_thinning`` see it
and ``RngState.spawn``.  Nothing under ``src/`` changes; ``uninstall()``
puts every original back.  ``layer_metrics()`` turns the spans and counters
into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import os
import time
import warnings
from collections import Counter

import numpy as np

# (module, attribute, span name).  A function imported by two modules is
# wrapped in both, because each call site looks it up in its own module.
_TRACED = (
    ("levyaug.cli", "run_alpha_sweep", "simulation.sweep"),
    ("levyaug.cli", "write_sweep_csv", "simulation.write_csv"),
    ("levyaug.simulation", "gen_gaussian_sim", "simulation.gen"),
    ("levyaug.simulation", "gen_poisson_sim", "simulation.gen"),
    ("levyaug.cli", "generate_pseudo_examples", "thinning.generate"),
    ("levyaug.simulation", "generate_pseudo_examples", "thinning.generate"),
    ("levyaug.cli", "fit_logistic_detailed", "logistic.fit"),
    ("levyaug.simulation", "fit_logistic_detailed", "logistic.fit"),
    ("levyaug.cli", "calibrate", "logistic.calibrate"),
    ("levyaug.simulation", "calibrate", "logistic.calibrate"),
    ("levyaug.simulation", "predict_labels", "logistic.predict"),
    ("levyaug.cli", "fit_strong_thinning", "strong_thinning.fit"),
    ("levyaug.simulation", "fit_strong_thinning", "strong_thinning.fit"),
    ("levyaug.cli", "read_dataset", "dataio.read_dataset"),
    ("levyaug.cli", "write_pseudo_dataset", "dataio.write_pseudo"),
    ("levyaug.cli", "read_pseudo_dataset", "dataio.read_pseudo"),
    ("levyaug.cli", "save_model", "dataio.save_model"),
    ("levyaug.logistic", "minimize", "scipy.minimize"),
    ("levyaug.strong_thinning", "minimize", "scipy.minimize"),
)

# Per-layer metrics: name -> unit.  Order is the order they are printed in.
LAYER_UNITS = {
    "simulation.cells": "count",
    "simulation.gen_s": "s",
    "simulation.cell_busy_s": "s",
    "simulation.cell_busy_serial_s": "s",
    "simulation.pool_slowdown": "ratio",
    "thinning.generate_s": "s",
    "thinning.draws": "count",
    "thinning.us_per_draw": "us",
    "rng.spawns": "count",
    "rng.spawn_s": "s",
    "logistic.fit_s": "s",
    "logistic.fits": "count",
    "logistic.solves": "count",
    "logistic.nit": "count",
    "logistic.nfev": "count",
    "logistic.ms_per_nfev": "ms",
    "logistic.design_rows": "count",
    "logistic.design_nnz_frac": "ratio",
    "logistic.lambda_edge": "count",
    "logistic.calibrate_s": "s",
    "logistic.calibrate_solves": "count",
    "logistic.separable_warnings": "count",
    "logistic.predict_s": "s",
    "strong_thinning.fit_s": "s",
    "strong_thinning.nfev": "count",
    "dataio.read_dataset_s": "s",
    "dataio.write_pseudo_s": "s",
    "dataio.read_pseudo_s": "s",
    "dataio.pseudo_bytes": "bytes",
    "dataio.save_model_s": "s",
    "cli.self_s": "s",
    "cli.thin_s": "s",
    "cli.train_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory.

    It also keeps what the checks in ``traced.py`` need: the inputs and
    output of every strong-thinning fit, and the design, grid and choice of
    every cross-validated fit.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.lambda_choices: list[tuple[float, tuple[float, ...], np.ndarray, np.ndarray]] = []
        self.limit_fits: list[tuple[list, object, float, np.ndarray]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._warned: dict = {}

    # ---------------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    # ------------------------------------------------------------- wrapping
    def install(self) -> None:
        from levyaug.rng import RngState

        for module_name, attr, name in _TRACED:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._wrapper(name, getattr(module, attr)))
        self._patch(RngState, "spawn", self._wrapper("rng.spawn", RngState.spawn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrapper(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            if name == "logistic.calibrate":
                return tracer._calibrate(fn, args, kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                _, start, end, _ = tracer.spans[index]
                after(args, kwargs, result, end - start)
            return result

        return traced

    def _calibrate(self, fn, args, kwargs):
        # Count the RuntimeWarnings calibration raises, then pass each on
        # so the program's own warning output is unchanged.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self.call("logistic.calibrate", fn, *args, **kwargs)
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                self.counts["separable_warnings"] += 1
            warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno, registry=self._warned
            )
        return result

    # --------------------------------------------------- per-call counters
    def _after_thinning_generate(self, args, kwargs, result, seconds):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        if cfg.alpha < 1.0:
            self.counts["draws"] += len(result)

    def _after_logistic_fit(self, args, kwargs, result, seconds):
        pseudo = args[0] if args else kwargs["pseudo"]
        self.counts["fits"] += 1
        rows = len(pseudo)
        width = int(np.asarray(pseudo[0].x_tilde).size)
        nnz = sum(int(np.count_nonzero(pe.x_tilde)) for pe in pseudo)
        if rows * width > self.counts["design_entries"]:
            self.counts["design_entries"] = rows * width
            self.counts["design_rows"] = rows
            self.counts["design_nnz"] = nnz
        model, report = result
        grid = tuple(lam for lam, _, _ in report.cv_table)
        if len(grid) >= 2 and report.chosen_lambda in (grid[0], grid[-1]):
            self.counts["lambda_edge"] += 1
        if grid:
            X = np.stack([np.asarray(pe.x_tilde, dtype=float).reshape(-1) for pe in pseudo])
            y = np.array([pe.y for pe in pseudo])
            self.lambda_choices.append((report.chosen_lambda, grid, X, y))

    def _after_strong_thinning_fit(self, args, kwargs, result, seconds):
        examples, family = args[0], args[1]
        lam = kwargs.get("ridge_lambda", args[2] if len(args) > 2 else 0.0)
        self.limit_fits.append((examples, family, lam, np.array(result.beta)))

    def _after_scipy_minimize(self, args, kwargs, result, seconds):
        if self._inside("logistic.calibrate"):
            self.counts["calibrate_solves"] += 1
        elif self._inside("strong_thinning.fit"):
            self.counts["strong_nfev"] += int(result.nfev)
        elif self._inside("logistic.fit"):
            self.counts["solves"] += 1
            self.counts["nit"] += int(result.nit)
            self.counts["nfev"] += int(result.nfev)
            self.counts["solve_ns"] += int(seconds * 1e9)

    def _after_dataio_write_pseudo(self, args, kwargs, result, seconds):
        self.counts["pseudo_bytes"] += os.path.getsize(args[0])

    # -------------------------------------------------------------- metrics
    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_seconds(self, name: str) -> float:
        """Span durations minus the time their direct children cover."""
        total = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n == name:
                children = sum(e - s for _, s, e, p in self.spans if p == i)
                total += end - start - children
        return total

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        draws = c["draws"]
        nfev = c["nfev"]
        entries = c["design_entries"]
        return {
            "simulation.gen_s": self.seconds("simulation.gen"),
            "thinning.generate_s": self.seconds("thinning.generate"),
            "thinning.draws": draws,
            "thinning.us_per_draw": (
                self.seconds("thinning.generate") / draws * 1e6 if draws else 0.0
            ),
            "rng.spawns": sum(1 for s in self.spans if s[0] == "rng.spawn"),
            "rng.spawn_s": self.seconds("rng.spawn"),
            "logistic.fit_s": self.seconds("logistic.fit"),
            "logistic.fits": c["fits"],
            "logistic.solves": c["solves"],
            "logistic.nit": c["nit"],
            "logistic.nfev": nfev,
            "logistic.ms_per_nfev": c["solve_ns"] / nfev / 1e6 if nfev else 0.0,
            "logistic.design_rows": c["design_rows"],
            "logistic.design_nnz_frac": c["design_nnz"] / entries if entries else 0.0,
            "logistic.lambda_edge": c["lambda_edge"],
            "logistic.calibrate_s": self.seconds("logistic.calibrate"),
            "logistic.calibrate_solves": c["calibrate_solves"],
            "logistic.separable_warnings": c["separable_warnings"],
            "logistic.predict_s": self.seconds("logistic.predict"),
            "strong_thinning.fit_s": self.seconds("strong_thinning.fit"),
            "strong_thinning.nfev": c["strong_nfev"],
            "dataio.read_dataset_s": self.seconds("dataio.read_dataset"),
            "dataio.write_pseudo_s": self.seconds("dataio.write_pseudo"),
            "dataio.read_pseudo_s": self.seconds("dataio.read_pseudo"),
            "dataio.pseudo_bytes": c["pseudo_bytes"],
            "dataio.save_model_s": self.seconds("dataio.save_model"),
            "cli.self_s": self.self_seconds("cli.main"),
        }
